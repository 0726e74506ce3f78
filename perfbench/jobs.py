"""Workload job lists.

A workload is a fixed, ordered list of CLI invocations over documents from
the ladder.  ``inputs(workload, seed)`` returns the documents to write
(name -> text) and ``jobs(workload)`` the invocations, with file names
relative to the directory the documents are written to.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ladder

WORKLOADS = ("battery", "spaces-dense", "check-io")
# The heaviest job of each workload runs on this many dense instances of the
# seed, so that no single instance sets the pass's cost or its slowest job.
INSTANCES = 3


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``kind`` names the same job on other instances."""

    id: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    kind: str = ""

    def __post_init__(self) -> None:
        if not self.kind:
            object.__setattr__(self, "kind", self.id)


def inputs(workload: str, seed: int) -> dict[str, str]:
    docs: dict[str, str] = {}
    if workload == "battery":
        for name in ladder.FIXTURE_NAMES:
            docs[f"{name}.json"] = ladder.fixture_text(name)
        docs["ds2.json"] = ladder.render(ladder.ds(2))
        docs["dtds2.json"] = ladder.render(ladder.dtds(2))
        for instance in range(INSTANCES):
            docs[f"tw2-{instance}.json"] = ladder.render(ladder.tw(2, seed, instance))
    elif workload == "spaces-dense":
        for instance in range(INSTANCES):
            docs[f"tw3-{instance}.json"] = ladder.render(ladder.tw(3, seed, instance))
    elif workload == "check-io":
        ds3 = ladder.ds(3)
        l3 = ladder.twist_map(3, seed)
        tw3 = ladder.conjugate(ds3, l3, "tw3")
        tw3_text = ladder.render(tw3)
        docs["ds3.json"] = ladder.render(ds3)
        docs["tw3.json"] = tw3_text
        for instance in range(INSTANCES):
            docs[f"tw4-{instance}.json"] = ladder.render(ladder.tw(4, seed, instance))
        docs["idem1.json"] = ladder.fixture_text("idem1")
        docs["l3.json"] = ladder.render_map(l3)
        docs["negid3.json"] = ladder.render_map(ladder.scalar_map(6, -1))
        docs["twoid3.json"] = ladder.render_map(ladder.scalar_map(6, 2))
        # Cut mid-document: a JSON syntax error.
        docs["bad-truncated.json"] = tw3_text[: len(tw3_text) // 2]
        # A decimal structure constant, which the rational grammar rejects.
        first = tw3_text.index('"v": "')
        end = tw3_text.index('"', first + 6)
        docs["bad-decimal.json"] = tw3_text[:first] + '"v": "0.5' + tw3_text[end:]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs


def _verify(name: str, power: int = 1, kind: str = "") -> Job:
    argv = ("verify", f"{name}.json", "--json", "--max-power", str(power))
    return Job(f"verify-{name}-p{power}", argv, kind=kind)


def _space(instance: int, kind: str, s: int, r: int, *extra: str) -> Job:
    suffix = "-koszul" if extra else ""
    doc = f"tw3-{instance}.json"
    return Job(
        f"spaces-{instance}-{kind}{suffix}-{s}{r}",
        ("spaces", doc, "--space", kind, "--s", str(s), "--r", str(r), *extra, "--json"),
        kind=f"spaces-{kind}{suffix}",
    )


def _out(cmd: str, *args: str) -> Job:
    target = f"out-{cmd}.json"
    return Job(cmd, (cmd, *args, "--json", "-o", target), (target,))


def jobs(workload: str) -> list[Job]:
    if workload == "battery":
        return [
            *(_verify(name) for name in ladder.FIXTURE_NAMES),
            _verify("ds2"),
            _verify("dtds2"),
            *(_verify(f"tw2-{i}", kind="verify-tw2-p1") for i in range(INSTANCES)),
            _verify("dual2-twisted", 2),
        ]
    if workload == "spaces-dense":
        return [
            _space(0, "GD", 1, 1),
            _space(0, "ZD", 0, 0),
            _space(1, "GD", 0, 1),
            _space(1, "QD", 0, 1),
            _space(2, "GD", 1, 0),
            _space(2, "D", 1, 0, "--koszul"),
            _space(2, "C", 2, 1),
            _space(2, "QC", 1, 2),
        ]
    if workload == "check-io":
        return [
            Job("check-tw3", ("check", "tw3.json", "--json")),
            *(
                Job(f"check-tw4-{i}", ("check", f"tw4-{i}.json", "--json"), kind="check-tw4")
                for i in range(INSTANCES)
            ),
            Job("check-hom-tw3", ("check", "tw3.json", "--hom", "--json")),
            Job("check-mult-tw4", ("check", "tw4-0.json", "--multiplicative", "--json")),
            _out("twist", "ds3.json", "--map", "l3.json"),
            _out("dsum", "tw3.json", "idem1.json"),
            Job("morphism", ("morphism", "ds3.json", "tw3.json", "--map", "l3.json", "--json")),
            Job("graph", ("graph", "ds3.json", "tw3.json", "--map", "l3.json", "--json")),
            _out("sum-product", "tw3.json"),
            _out("total-product", "tw3.json"),
            _out("commutator", "tw3.json"),
            _out("swap", "tw3.json"),
            Job("rb", ("rb", "tw3.json", "--map", "negid3.json", "--weight", "1", "--json")),
            Job("avg", ("avg", "tw3.json", "--map", "twoid3.json", "--json")),
            Job("bad-truncated", ("check", "bad-truncated.json", "--json")),
            Job("bad-decimal", ("check", "bad-decimal.json", "--json")),
        ]
    raise ValueError(f"unknown workload {workload!r}")
