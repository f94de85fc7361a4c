"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Each workload drives fiedlertools through its public functions (or its CLI
entry point) from outside the package. Inputs come from the benchmark seed
alone. Checks run after the timed loop and compare against an oracle that
lives only here: ``numpy.linalg.eigh`` on a Laplacian built from the edge
list. See README.md for why each workload exists.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path

import numpy as np

# relative gap under which an oracle lambda2 counts as repeated; the Fiedler
# vector is then basis-dependent and extremality flags are not compared
ORACLE_DEGENERATE_GAP = 1e-8


class Verdict:
    """Outcome of checking one operation: misses, lambda2 errors, skips."""

    def __init__(self) -> None:
        self.misses: list[str] = []
        self.lambda2_errors: list[float] = []
        self.skipped = 0
        # base Fiedler extrema whose pendant the oracle also finds
        # non-extremal inside the window: criterion 8's property does not
        # hold on that graph, and the program's answer is the right one
        self.criterion8_counterexamples = 0

    def miss(self, why: str) -> None:
        self.misses.append(why)

    def lambda2(self, got: float, want: float) -> None:
        self.lambda2_errors.append(abs(got - want) / abs(want))

    @property
    def ok(self) -> bool:
        return not self.misses


def oracle_laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n))
    for u, v, w in edges:
        L[u, v] -= w
        L[v, u] -= w
        L[u, u] += w
        L[v, v] += w
    return L


def with_pendant(L: np.ndarray, v: int, x: float) -> np.ndarray:
    n = L.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = L
    A[v, v] += x
    A[n, n] += x
    A[v, n] -= x
    A[n, v] -= x
    return A


def oracle_pair(L: np.ndarray):
    """(lambda2, Fiedler vector, degenerate) from numpy.linalg.eigh."""
    vals, vecs = np.linalg.eigh(L)
    lam2 = float(vals[1])
    gap = float(vals[2] - vals[1]) if vals.size > 2 else math.inf
    return lam2, vecs[:, 1], gap < ORACLE_DEGENERATE_GAP * max(1.0, lam2)


def oracle_pendant_extremal(phi: np.ndarray, tie_tol: float) -> bool:
    # the extremality rule documented on fiedlertools.perturbed_fiedler
    n = phi.size - 1
    maxmag = float(np.max(np.abs(phi)))
    oriented = phi if phi[n] >= 0.0 else -phi
    return float(oriented[n]) >= float(np.max(oriented[:n])) - tie_tol * maxmag


def rayleigh(L: np.ndarray, phi: np.ndarray) -> float:
    phi = np.asarray(phi, dtype=float)
    return float(phi @ L @ phi) / float(phi @ phi)


class GnmFcd:
    """One G(20, m) graph through ``correlation_experiment`` per operation."""

    name = "gnm_fcd"
    # one traced pass covers the whole m grid once
    M_GRID = list(range(30, 161, 10))
    TRACE_OPS = len(M_GRID)
    N = 20
    POOL = 4096
    WARMUP_M = 60

    def __init__(self, ft, seed: int, workdir: Path) -> None:
        self.ft = ft
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        self.graph_seeds = [rng.getrandbits(63) for _ in range(self.POOL)]
        # fcd_all is called inside correlation_experiment; keep what it
        # returns so the checks can see every a(v)
        self.captured: list = []
        centrality = ft.centrality
        fcd_all = centrality.fcd_all

        def capture(g, *args, **kwargs):
            results = fcd_all(g, *args, **kwargs)
            self.captured.append((g, results))
            return results

        centrality.fcd_all = capture

    def warmup(self) -> None:
        # one full-size operation on a graph that is the same for every seed:
        # compute, not import, should dominate set-up time, and by the same
        # amount in every run
        self.ft.correlation_experiment(n=self.N, m_list=[self.WARMUP_M], num_graphs=1, seed=0)
        self.captured.clear()

    def input(self, k: int):
        return self.M_GRID[k % len(self.M_GRID)], self.graph_seeds[k % self.POOL]

    def op(self, inp):
        m, graph_seed = inp
        self.captured.clear()
        table = self.ft.correlation_experiment(n=self.N, m_list=[m], num_graphs=1, seed=graph_seed)
        return table, (self.captured[0] if self.captured else None)

    def check(self, inp, out) -> Verdict:
        """Every per-vertex result against the oracle's extremality flags.

        interior: True at 10^(log a - exp_tol), False at 10^(log a + exp_tol);
        hit_xmax: True at 10^beta; hit_xmin: False at 10^alpha.
        """
        ft = self.ft
        verdict = Verdict()
        table, captured = out
        m = inp[0]
        if table.failed_graphs:
            verdict.miss(f"m={m}: correlation_experiment dropped {table.failed_graphs} graph(s)")
        if captured is None:
            verdict.miss(f"m={m}: fcd_all never returned")
            return verdict
        g, results = captured
        cfg = ft.FcdConfig()
        L = oracle_laplacian(g.n, g.edges)
        lam2, phi, degenerate = oracle_pair(L)
        verdict.lambda2(ft.fiedler(g).lambda2, lam2)
        for r in results:
            if r.boundary_flag == "interior":
                log_a = math.log10(r.a_v)
                probes = ((log_a - cfg.exp_tol, True), (log_a + cfg.exp_tol, False))
            elif r.boundary_flag == "hit_xmax":
                probes = ((cfg.beta, True),)
            else:
                probes = ((cfg.alpha, False),)
            for log_x, want in probes:
                x = 10.0**log_x
                lam2_x, phi_x, degenerate_x = oracle_pair(with_pendant(L, r.v, x))
                if r.boundary_flag == "interior" and want:
                    verdict.lambda2(ft.perturbed_fiedler(g, r.v, x, cfg.tie_tol).lambda2_x, lam2_x)
                if degenerate_x:
                    verdict.skipped += 1
                elif oracle_pendant_extremal(phi_x, cfg.tie_tol) != want:
                    verdict.miss(
                        f"m={m}: vertex {r.v} came back {r.boundary_flag} (a(v)={r.a_v:.6g}), "
                        f"but the oracle flag at x={x:.6g} is {not want}"
                    )
        if degenerate:
            verdict.skipped += 1
        else:
            for v in {int(np.argmax(phi)), int(np.argmin(phi))}:
                if results[v].boundary_flag != "hit_xmax":
                    verdict.criterion8_counterexamples += 1
        return verdict

    def counts(self, outputs) -> dict:
        return {"centrality.failed_graphs": sum(table.failed_graphs for table, _ in outputs)}


CLI_CSVS = (
    "spectrum.csv", "fiedler.csv", "sweep.csv", "fcd.csv",
    "correlations.csv", "profile.csv", "isolines.csv",
)


class CliRound:
    """All five CLI subcommands, once each, per operation."""

    name = "cli_round"
    TRACE_OPS = 2
    # rounds cycle through this many input sets made from the seed, so one
    # run's cost is an average over several inputs rather than one draw
    SETS = 4
    # the CLI's worker cap: one process, no pool. With the default (one
    # worker per core) a round keeps both vCPUs of a 2-vCPU host busy, and
    # its time follows whatever else the host runs on either of them
    THREADS = 1

    def __init__(self, ft, seed: int, workdir: Path) -> None:
        import fiedlertools.cli  # noqa: F401  (the package does not import it)

        self.ft = ft
        self.cli = ft.cli
        rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.sets = [self._input_set(rng, workdir / f"inputs{i}") for i in range(self.SETS)]
        # the first round that ran each set, which later rounds must match
        self.first_round: dict[int, Path] = {}
        self.round = 0

    def _input_set(self, rng: random.Random, inputs: Path) -> dict:
        ft = self.ft
        inputs.mkdir(parents=True, exist_ok=True)
        big = ft.generate("gnm", 120, 300, seed=rng.getrandbits(63))
        ft.write_edgelist(big, inputs / "g120.edges")
        small = ft.generate("gnm", 20, 60, seed=rng.getrandbits(63))
        ft.write_edgelist(small, inputs / "g20.edges")
        mask, tip = ft.synthetic_hooked_shape(
            bar_length=40, bar_width=4, hook_height=rng.randint(3, 5), hook_width=3,
            overhang=rng.randint(5, 8),
        )
        (inputs / "hook.txt").write_text(
            "\n".join("".join("1" if b else "0" for b in row) for row in mask.values) + "\n"
        )
        commands = [
            ["fiedler", str(inputs / "g120.edges")],
            ["perturb-sweep", str(inputs / "g20.edges"), "--vertex", str(rng.randrange(20)), "--svg"],
            ["fcd", str(inputs / "g20.edges")],
            ["centrality-experiment", "--graphs-per-m", "1", "--svg"],
            ["shape", "--mask", str(inputs / "hook.txt"), "--anchor", f"{tip[0]},{tip[1]}", "--svg"],
        ]
        return {"big": big, "cli_seed": rng.getrandbits(31), "commands": commands}

    def _main(self, out_dir: Path, cli_seed: int, argv: list[str]) -> tuple[int, str]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(
                ["--out-dir", str(out_dir), "--force", "--seed", str(cli_seed),
                 "--threads", str(self.THREADS)] + argv
            )
        return code, sink.getvalue()

    def warmup(self) -> None:
        # the round's first subcommand on its own input: compute, not file
        # system latency, should dominate set-up time
        first = self.sets[0]
        self._main(self.workdir / "warm", first["cli_seed"], first["commands"][0])

    def input(self, k: int):
        return k

    def op(self, k):
        # every round writes to a directory of its own, so each can be checked
        out_dir = self.workdir / f"round{self.round:05d}"
        self.round += 1
        inp = self.sets[k % self.SETS]
        self.first_round.setdefault(k % self.SETS, out_dir)
        return out_dir, [self._main(out_dir, inp["cli_seed"], argv) for argv in inp["commands"]]

    def check(self, k, out) -> Verdict:
        verdict = Verdict()
        out_dir, runs = out
        inp = self.sets[k % self.SETS]
        for argv, (code, text) in zip(inp["commands"], runs):
            if code != 0:
                verdict.miss(f"round {k}: {argv[0]} exited {code}: {text.strip()[-200:]}")
        reference = self.first_round[k % self.SETS]
        for name in CLI_CSVS:
            path = out_dir / name
            if not path.is_file():
                verdict.miss(f"round {k}: {name} missing")
            elif not (reference / name).is_file():
                verdict.miss(f"round {k}: {reference.name} wrote no {name} to compare with")
            elif path.read_bytes() != (reference / name).read_bytes():
                verdict.miss(f"round {k}: {name} differs from {reference.name}, the first round on the same inputs")
        spectrum = out_dir / "spectrum.csv"
        vector = out_dir / "fiedler.csv"
        big = inp["big"]
        if spectrum.is_file() and vector.is_file():
            L = oracle_laplacian(big.n, big.edges)
            lam2 = float(np.linalg.eigvalsh(L)[1])
            rows = spectrum.read_text().splitlines()[1:]
            verdict.lambda2(float(rows[1].split(",")[1]), lam2)
            phi = [float(line.split(",")[1]) for line in vector.read_text().splitlines()[1:]]
            verdict.lambda2(rayleigh(L, phi), lam2)
        return verdict

    def counts(self, outputs) -> dict:
        csv_bytes = 0
        dropped = 0
        for out_dir, runs in outputs:
            csv_bytes += sum((out_dir / name).stat().st_size for name in CLI_CSVS if (out_dir / name).is_file())
            # centrality-experiment prints "...; N graphs dropped"
            for line in runs[3][1].splitlines():
                if line.endswith(" graphs dropped"):
                    dropped += int(line.rsplit(";", 1)[1].split()[0])
        return {"cli.csv_bytes": csv_bytes, "centrality.failed_graphs": dropped}

    def anchor_reports(self, outputs) -> list[str]:
        """What ``shape --anchor`` said about the anchor, one line per round."""
        lines = []
        for _, runs in outputs:
            text = runs[-1][1]
            lines += [line for line in text.splitlines() if line.startswith("anchor (")]
        return lines


WORKLOADS = {w.name: w for w in (GnmFcd, CliRound)}
