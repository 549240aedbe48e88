"""Seeded inputs and command lists of the benchmark workloads.

Each workload is a list of `orcov` CLI commands plus the input files they
read.  The seed decides what is random: graph draws (except the fixed
chi-search graphs), vertex labels, file encodings, edge-line order, which
edge a tampered certificate breaks, and the order in which commands run.  Every command carries its
own output check (see checks.py), which never calls into orcov.

`tiny=True` builds the same workloads at toy sizes for selftest.py.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks

WORKLOADS = ("mif-catalog", "chi-search", "cover-dense")

# Commands fall in groups (lambda, enumerate, sigma, construct, verify).
# The group each workload is built to stress gives its solve_s; the
# other groups' times are reported alongside.
SOLVE_GROUP = {"mif-catalog": "lambda", "chi-search": "sigma", "cover-dense": "construct"}

# chi-search graphs are a fixed draw of G(n, 1/2), n in 38..44, made from
# this seed.  Exact-colouring time per graph is heavy-tailed (0.005 s to
# 7 s, coefficient of variation about 2 over 300 draws; relabelling one
# graph spreads as widely), so graphs drawn from the run seed would need
# hundreds per run for a total that repeats within 10 %.  The run seed
# still picks each file's encoding, line order and the command order.
CHI_POOL_SEED = 2010_04450
CHI_POOL_SIZE = 10
CHI_MAX_VERTICES = 64
COVER_MAX_VERTICES = 1000

Graph = tuple  # (n, edges): edges sorted (u, v) pairs with u < v


@dataclass
class Command:
    """One `python -m orcov <args>` call and the check of its result.

    `prepare` runs untimed just before the call (it writes inputs that
    depend on an earlier command's output); `check(exit_code, stdout)`
    returns None when the result is right, else a one-line reason.
    """

    group: str
    args: list[str]
    check: Callable[[int, bytes], Optional[str]]
    prepare: Optional[Callable[[], Optional[str]]] = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> sha256


def gnp(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return n, edges


def complete_multipartite(rng: random.Random, n: int, r: int) -> Graph:
    """K_n when r == n; otherwise r near-equal parts, vertices shuffled."""
    part = [i % r for i in range(n)]
    rng.shuffle(part)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return n, edges


def encode_edge_list(rng: random.Random, g: Graph) -> str:
    n, edges = g
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return f"n {n}\n" + "\n".join(lines) + "\n"


def encode_graph6(g: Graph) -> str:
    """graph6 short form: upper-triangle bits column by column, 6 per byte."""
    n, edges = g
    present = set(edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out) + "\n"


class _Builder:
    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{name}:{seed}")
        self.workdir = workdir
        self.workload = Workload(name, [])

    def write(self, fname: str, text: str) -> str:
        path = self.workdir / fname
        path.write_text(text, encoding="ascii")
        self.workload.inputs[fname] = hashlib.sha256(text.encode("ascii")).hexdigest()
        return str(path)

    def add(self, cmd: Command) -> None:
        self.workload.commands.append(cmd)

    def graph_file(self, fname: str, g: Graph, graph6_ok: bool) -> str:
        if graph6_ok and self.rng.random() < 0.5:
            return self.write(fname + ".g6", encode_graph6(g))
        return self.write(fname + ".el", encode_edge_list(self.rng, g))

    def sigma(self, fname: str, g: Graph, max_vertices: int) -> None:
        path = self.graph_file(fname, g, graph6_ok=g[0] <= 62)
        self.add(Command(
            "sigma",
            ["sigma", path, "--max-chi-vertices", str(max_vertices)],
            lambda code, out: checks.check_sigma(code, out, g),
        ))

    def cover(self, fname: str, g: Graph, chi: Optional[int]) -> None:
        """construct-cover, verify-cover, and verify-cover of a tampered copy.

        `chi` is the chromatic number when the construction fixes it, else
        None (checks.chi_error then judges the certificate's colouring).
        """
        path = self.graph_file(fname, g, graph6_ok=False)
        cert = str(self.workdir / (fname + ".cert.json"))
        bad = str(self.workdir / (fname + ".tampered.json"))
        tamper_edge = self.rng.randrange(len(g[1]))
        tamper_dir = self.rng.random() < 0.5
        expected: dict[str, tuple] = {}
        tampered_by_cert: dict[bytes, tuple[str, tuple]] = {}

        def check_construct(code: int, out: bytes) -> Optional[str]:
            return checks.check_construct(code, out, Path(cert), g, chi)

        def prepare_tampered() -> Optional[str]:
            try:
                text = Path(cert).read_text(encoding="ascii")
                key = hashlib.sha256(text.encode("ascii")).digest()
                if key not in tampered_by_cert:
                    tampered_by_cert[key] = checks.tamper(text, g, tamper_edge, tamper_dir)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                return f"cannot tamper {cert}: {exc}"
            tampered, expected["witness"] = tampered_by_cert[key]
            Path(bad).write_text(tampered, encoding="ascii")
            return None

        def check_tampered(code: int, out: bytes) -> Optional[str]:
            if "witness" not in expected:
                return "no tampered certificate was prepared"
            return checks.check_rejected(code, out, expected["witness"])

        self.add(Command(
            "construct",
            ["construct-cover", path, "--max-chi-vertices", str(COVER_MAX_VERTICES),
             "--out", cert],
            check_construct,
        ))
        self.add(Command("verify", ["verify-cover", path, cert], checks.check_accept))
        self.add(Command(
            "verify", ["verify-cover", path, bad], check_tampered, prepare_tampered
        ))


def _mif_catalog(b: _Builder, tiny: bool) -> None:
    k_count, n_complete, k_list = (4, 13, 3) if tiny else (7, 2647, 6)
    listings: dict[str, bytes] = {}

    def check_listing(path: str) -> Callable[[int, bytes], Optional[str]]:
        def check(code: int, out: bytes) -> Optional[str]:
            err = checks.check_enumeration(code, out, k_list)
            if err:
                return err
            listings[path] = out
            if len(set(listings.values())) > 1:
                return "the default and --stream listings differ"
            return None
        return check

    cmds = [
        Command("lambda", ["lambda", str(k_count)],
                lambda code, out: checks.check_lambda(code, out, k_count)),
        Command("lambda", ["sigma-complete", str(n_complete)],
                lambda code, out: checks.check_sigma_complete(code, out, n_complete)),
        Command("enumerate", ["enumerate-mifs", str(k_list)], check_listing("default")),
        Command("enumerate", ["enumerate-mifs", str(k_list), "--stream"],
                check_listing("stream")),
    ]
    b.rng.shuffle(cmds)
    for cmd in cmds:
        b.add(cmd)
    b.workload.inputs["commands"] = hashlib.sha256(
        repr([c.args for c in cmds]).encode()
    ).hexdigest()


def _chi_search(b: _Builder, tiny: bool) -> None:
    pool_rng = random.Random(CHI_POOL_SEED)
    lo, hi, count = (9, 12, 4) if tiny else (38, 44, CHI_POOL_SIZE)
    graphs = []
    for i in range(count):
        n = pool_rng.randint(lo, hi)
        graphs.append((f"chi{i:02d}", gnp(pool_rng, n, 0.5)))
    b.rng.shuffle(graphs)
    for fname, g in graphs:
        b.sigma(fname, g, CHI_MAX_VERTICES)


def _cover_dense(b: _Builder, tiny: bool) -> None:
    # K_n plus complete multipartite graphs: the greedy clique already
    # equals chi, so time goes to the colouring scan and the cover layer,
    # not to a lower-bound proof.  Colouring grows about as n^3, so n stays
    # at 220 or below: a pass then takes about 5 s and several passes fit
    # in one run.
    shapes = [(8, 8), (12, 4)] if tiny else [(120, 120), (180, 60), (220, 30)]
    for i, (n, r) in enumerate(shapes):
        b.cover(f"dense{i}", complete_multipartite(b.rng, n, r), chi=r)


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Write the inputs of workload `name` for `seed` and list its commands."""
    b = _Builder(name, seed, workdir)
    {"mif-catalog": _mif_catalog, "chi-search": _chi_search,
     "cover-dense": _cover_dense}[name](b, tiny)
    return b.workload


def build_probe(seed: int, workdir: Path) -> Workload:
    """One seeded G(16, 1/2) graph through sigma, construct-cover and verify-cover.

    The traced run adds it to every workload, so that every layer is
    entered and every per-layer time is a measurement; on a workload
    whose own commands skip a layer, the probe's small share is what
    that layer shows.
    """
    b = _Builder("probe", seed, workdir)
    g = gnp(b.rng, 16, 0.5)
    b.sigma("probe", g, CHI_MAX_VERTICES)
    b.cover("probe", g, chi=None)
    return b.workload
