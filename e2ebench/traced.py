"""Traced replay: a workload's commands rebuilt from orcov's public calls.

    python traced.py <manifest.json>

run.py starts this in a fresh process (so caches start cold) with the
checkout's src/ on PYTHONPATH, after running the same commands through
the CLI.  Each command is replayed one layer call at a time, every call
timed on its own, and the composed stdout and certificates are compared
byte for byte with what the CLI printed and wrote, and with a single
construct_cover call.  The last line of stdout is one JSON object:
{"metrics": {...}, "compared": N, "mismatches": [...]}.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from orcov import (
    CertificateMeta,
    CoverCertificate,
    FamilyAssignment,
    certificate_from_json,
    certificate_to_json,
    chromatic_number,
    construct_cover,
    cover_from_families,
    enumerate_mifs,
    hosten_morris,
    parse_edge_list,
    parse_graph6,
    proper_coloring,
    sigma_complete,
    sorted_mif_masks,
    verify_cover,
)
from orcov import cli
from orcov.families import lambda_provenance
from orcov.oracle import brute_mifs

TIMES = (
    "cli.load_graph_s", "cli.format_s",
    "graphs.parse_s", "graphs.chromatic_s", "graphs.recolor_s",
    "sigma.sigma_complete_s",
    "families.mif_count_s", "families.mif_masks_s", "families.catalog_s",
    "families.k7_masks_s", "families.k7_catalog_s",
    "cover.assign_s", "cover.to_json_s", "cover.from_json_s", "cover.verify_s",
    "cover.construct_s", "cover.construct_glue_s",
)
COUNTS = (
    "cli.stdout_bytes", "graphs.edges", "graphs.chi_sum", "families.catalog_size",
    "cover.cert_bytes", "cover.triples", "cover.rejected",
)
# Composed children of construct_cover, subtracted to get its glue time.
CONSTRUCT_CHILDREN = (
    "graphs.chromatic_s", "sigma.sigma_complete_s", "graphs.recolor_s",
    "families.catalog_s", "cover.assign_s",
)


class Replay:
    def __init__(self) -> None:
        self.t = dict.fromkeys(TIMES, 0.0)
        self.n = dict.fromkeys(COUNTS, 0)
        self.families_used = 0
        self.compared = 0
        self.mismatches: list[str] = []

    def timed(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.t[name] += time.perf_counter() - t0
        return result

    def same(self, what: str, got, want) -> None:
        self.compared += 1
        if got != want:
            self.mismatches.append(f"{what}: composed {str(got)[:60]!r} != {str(want)[:60]!r}")

    def emit(self, what: str, text: str, cli_stdout: str) -> None:
        self.n["cli.stdout_bytes"] += len(text)
        self.same(f"{what} stdout", text, Path(cli_stdout).read_text(encoding="ascii"))

    def load(self, path: str, fmt: str):
        text = self.timed("cli.load_graph_s", Path(path).read_text, encoding="ascii")
        if fmt == "auto":
            fmt = self.timed("cli.load_graph_s", cli.sniff_format, text)
        parser = parse_graph6 if fmt == "graph6" else parse_edge_list
        g = self.timed("graphs.parse_s", parser, text)
        self.n["graphs.edges"] += g.m
        return g

    def lambdas_upto(self, n: int) -> None:
        """The lambda table sigma_complete(n) reads, computed here so it is timed apart."""
        k = 1
        while self.timed("families.mif_count_s", hosten_morris, k) < n:
            k += 1

    def sigma(self, g, max_vertices: int):
        chi = self.timed("graphs.chromatic_s", chromatic_number, g, max_vertices=max_vertices)
        self.n["graphs.chi_sum"] += chi
        self.lambdas_upto(chi)
        return chi, self.timed("sigma.sigma_complete_s", sigma_complete, chi)

    def catalog(self, k: int):
        self.timed("families.mif_masks_s", sorted_mif_masks, k)
        cat = self.timed("families.catalog_s", enumerate_mifs, k)
        self.n["families.catalog_size"] += cat.count
        return cat

    def verify(self, g, orientations) -> str:
        verdict = self.timed("cover.verify_s", verify_cover, g, orientations)
        self.n["cover.triples"] += sum(g.degree(x) ** 2 for x in range(g.n))
        if verdict is None:
            return ""
        self.n["cover.rejected"] += 1
        return "counterexample {} {} {}\n".format(*verdict)

    def command(self, argv: list[str], cli_stdout: str) -> None:
        args = cli.build_parser().parse_args(argv)
        cmd = args.command
        if cmd == "lambda":
            value = self.timed("families.mif_count_s", hosten_morris, args.k)
            self.emit(cmd, f"{value} {lambda_provenance(args.k)}\n", cli_stdout)
        elif cmd == "sigma-complete":
            self.lambdas_upto(args.n)
            res = self.timed("sigma.sigma_complete_s", sigma_complete, args.n)
            self.emit(cmd, f"{res.value}\n", cli_stdout)
        elif cmd == "enumerate-mifs":
            cat = self.catalog(args.k)
            self.families_used += cat.count
            text = self.timed(
                "cli.format_s", lambda: "".join(f.format() + "\n" for f in cat.families)
            )
            self.emit(cmd, text, cli_stdout)
        elif cmd == "sigma":
            g = self.load(args.graph, args.format)
            chi, res = self.sigma(g, args.max_chi_vertices)
            line = self.timed("cli.format_s", "{} {} {}\n".format, res.value, chi, res.witness_k)
            self.emit(cmd, line, cli_stdout)
        elif cmd == "construct-cover":
            self.construct(args, cli_stdout)
        elif cmd == "verify-cover":
            g = self.load(args.graph, args.format)
            text = self.timed("cli.load_graph_s", Path(args.certificate).read_text, encoding="ascii")
            cert = self.timed("cover.from_json_s", certificate_from_json, text, g)
            line = self.verify(g, cert.orientations) or "accept\n"
            self.emit(cmd, self.timed("cli.format_s", str, line), cli_stdout)
        else:
            raise ValueError(f"no replay for command {cmd!r}")

    def construct(self, args, cli_stdout: str) -> None:
        g = self.load(args.graph, args.format)
        before = {k: self.t[k] for k in CONSTRUCT_CHILDREN}
        chi, res = self.sigma(g, args.max_chi_vertices)
        coloring = self.timed("graphs.recolor_s", proper_coloring, g, chi)
        cat = self.catalog(res.value)
        self.families_used += chi
        t0 = time.perf_counter()
        fa = FamilyAssignment(res.value, tuple(cat.families[c] for c in coloring.colors))
        assigned = cover_from_families(g, fa)
        self.t["cover.assign_s"] += time.perf_counter() - t0
        cert = CoverCertificate(assigned.k, assigned.orientations, CertificateMeta(
            coloring=coloring.colors,
            family_indices=tuple(range(chi)),
            direction_sets=assigned.meta.direction_sets,
        ))
        text = self.timed("cover.to_json_s", certificate_to_json, g, cert)
        self.n["cover.cert_bytes"] += len(text)
        line = self.verify(g, cert.orientations) or f"{cert.k} accept\n"
        self.emit("construct-cover", self.timed("cli.format_s", str, line), cli_stdout)
        self.same("construct-cover --out", text + "\n", Path(args.out).read_text(encoding="ascii"))
        children = sum(self.t[k] - before[k] for k in CONSTRUCT_CHILDREN)
        t0 = time.perf_counter()
        whole = construct_cover(g, max_chi_vertices=args.max_chi_vertices)
        elapsed = time.perf_counter() - t0
        self.t["cover.construct_s"] += elapsed
        self.t["cover.construct_glue_s"] += elapsed - children
        self.same("construct_cover", certificate_to_json(g, whole), text)

    def library_k7(self) -> None:
        """Library-level k = 7 cost, kept out of the CLI commands (905 MB of stdout)."""
        self.timed("families.k7_masks_s", sorted_mif_masks, 7)
        cat = self.timed("families.k7_catalog_s", enumerate_mifs, 7)
        self.same("enumerate_mifs(7) size", cat.count, 1422564)

    def oracle_check(self) -> None:
        self.same(
            "enumerate_mifs(4) against oracle.brute_mifs(4)",
            [f.member for f in enumerate_mifs(4).families],
            [f.member for f in brute_mifs(4)],
        )

    def metrics(self, wall: float) -> dict[str, float]:
        out: dict[str, float] = {**self.t, **self.n}
        busy = self.t["graphs.chromatic_s"] + self.t["graphs.recolor_s"]
        out["graphs.recolor_share"] = self.t["graphs.recolor_s"] / busy if busy else 0.0
        built = self.n["families.catalog_size"]
        out["families.catalog_used_frac"] = self.families_used / built if built else 0.0
        verify = self.t["cover.verify_s"]
        out["cover.triples_per_s"] = self.n["cover.triples"] / verify if verify else 0.0
        out["trace.wall_s"] = wall
        return out


def main(manifest_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text(encoding="ascii"))
    t0 = time.perf_counter()
    replay = Replay()
    for entry in manifest["commands"]:
        replay.command(entry["args"], entry["cli_stdout"])
    replay.library_k7()
    replay.oracle_check()
    wall = time.perf_counter() - t0
    print(json.dumps({
        "metrics": replay.metrics(wall),
        "compared": replay.compared,
        "mismatches": replay.mismatches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
