"""The three workloads: theta solves, in-process witness certification, CLI loop.

Each workload prepares its inputs in `__init__` and runs one round of its
fixed operation list in `run_round`.  A round always attempts the same
operations in the same order, so the share of failed operations does not
depend on the seed or on how many rounds fit into a run.  Only the work of
the package is timed; every check runs after its operation's clock stops.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import inputs
import oracles
from oracles import TOL_MATCH, TOL_REPORT
from tracing import SPAWN_TIME_VAR


class Tally:
    """Durations and outcomes of the operations of one measured loop."""

    def __init__(self):
        self.durations: list[float] = []
        self.names: list[str] = []
        self.failed = 0
        self.errors: list[str] = []
        self.child_peak_kb = 0

    def record(self, name: str, seconds: float, problems: list[str],
               known_fault: bool = False) -> None:
        """Count one operation; a problem on any but the known fault is an error."""
        self.durations.append(seconds)
        self.names.append(name)
        if problems:
            self.failed += 1
            if not known_fault:
                self.errors.append(f"{name}: {'; '.join(problems)}")


def _require(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# theta


class ThetaWorkload:
    """solve_theta over Paley graphs, odd cycles, their complements and G(16, 1/2) pairs."""

    def __init__(self, qk, seed: int):
        self.qk = qk
        self.graphs = inputs.theta_catalogue(seed)
        self._sandwich: dict[str, tuple[int, int]] = {}

    def warm_up(self) -> None:
        """Solve the small graphs once, so lazy imports and caches are filled."""
        for g in self.graphs:
            if g["n"] <= 13:
                self.qk.solve_theta(g["n"], g["edges"])

    def run_round(self, tally: Tally, tracer=None) -> None:
        values = {}
        for g in self.graphs:
            if tracer is not None:
                tracer.op += 1
            start = time.perf_counter()
            try:
                result = self.qk.solve_theta(g["n"], g["edges"])
            except Exception as exc:  # a solver failure is a result to report
                tally.record(g["name"], time.perf_counter() - start, [repr(exc)])
                continue
            seconds = time.perf_counter() - start
            values[g["name"]] = result.value
            tally.record(g["name"], seconds, self._check(g, result, values))

    def _check(self, g, result, values) -> list[str]:
        problems = []
        value = result.value
        feas = oracles.theta_feasibility(result.x_matrix, g["edges"], value)
        _require(problems, feas <= oracles.TOL_FEAS, f"X infeasible by {feas:.2e}")
        if "closed_form" in g:
            err = abs(value - g["closed_form"])
            _require(problems, err <= oracles.TOL_THETA,
                     f"theta {value!r} is {err:.2e} from the closed form")
        if g["name"] not in self._sandwich:
            self._sandwich[g["name"]] = oracles.theta_sandwich(g["n"], g["edges"])
        alpha, chi_bound = self._sandwich[g["name"]]
        _require(problems, alpha - oracles.TOL_THETA <= value <= chi_bound + oracles.TOL_THETA,
                 f"theta {value!r} outside [alpha {alpha}, chi(co-G) <= {chi_bound}]")
        pair = g.get("complement_of")
        if pair in values:
            prod = value * values[pair]
            _require(problems, prod >= g["n"] - oracles.TOL_THETA,
                     f"theta(G) theta(co-G) = {prod!r} < n")
        return problems


# ---------------------------------------------------------------------------
# witness


def _instances(configs):
    """Each configuration without its trailing count, repeated count times."""
    return [c[:-1] for c in configs for _ in range(c[-1])]


class WitnessWorkload:
    """Build, report, reduce and compose seeded witnesses of every class."""

    def __init__(self, qk, seed: int):
        self.qk = qk
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for de, df in _instances(inputs.QUANTUM_PAIRS):
            e = inputs.random_stochastic(rng, *de)
            f = inputs.random_stochastic(rng, *df)
            sigma = inputs.random_state(rng, de[2] * df[2])
            em, fm = qk.StochasticOperatorMatrix(*de, e), qk.StochasticOperatorMatrix(*df, f)
            self._add_qns(rng, f"quantum {de}x{df}", (de[0], df[0], de[1], df[1]),
                          lambda em=em, fm=fm, s=sigma: qk.build_quantum(em, fm, s),
                          oracles.quantum_choi(e, f, sigma, de, df),
                          oracles.quantum_table(e, f, sigma, de, df))
        for de, df in _instances(inputs.COMMUTING_PAIRS):
            e = inputs.random_stochastic(rng, *de)
            f = inputs.random_stochastic(rng, *df)
            sigma = inputs.random_state(rng, de[2] * df[2])
            ha, hb = de[2], df[2]
            e_wide = np.kron(e, np.eye(hb))                          # E (x) I on H_A (x) H_B
            f_wide = np.einsum("ybkYBK,hH->ybhkYBHK", oracles.six(f, df), np.eye(ha))
            size_f = df[0] * df[1] * ha * hb
            em = qk.StochasticOperatorMatrix(de[0], de[1], ha * hb, e_wide)
            fm = qk.StochasticOperatorMatrix(df[0], df[1], ha * hb,
                                             f_wide.reshape(size_f, size_f))
            # (E (x) I)(I (x) F) = E (x) F, so the tensor formula is the reference
            self._add_qns(rng, f"commuting {de}x{df}", (de[0], df[0], de[1], df[1]),
                          lambda em=em, fm=fm, s=sigma: qk.build_commuting(em, fm, s),
                          oracles.quantum_choi(e, f, sigma, de, df),
                          oracles.quantum_table(e, f, sigma, de, df))
        for terms, dx, dy, da, db in _instances(inputs.LOCAL_MIXTURES):
            raw = rng.random(terms) + 0.2
            weights = [float(w) for w in raw / raw.sum()]
            alice = [inputs.random_channel_choi(rng, dx, da) for _ in range(terms)]
            bob = [inputs.random_channel_choi(rng, dy, db) for _ in range(terms)]
            dims = (dx, dy, da, db)
            cd = qk.CorrelationDims(*dims)
            choi = oracles.local_choi(weights, alice, bob, dims)
            self._add_qns(rng, f"local {terms}x{dims}", dims,
                          lambda w=weights, a=alice, b=bob, cd=cd: qk.build_local(w, a, b, cd),
                          choi, None)
        for dx, da, block_dims, weights in _instances(inputs.TRACIAL):
            blocks = [inputs.random_stochastic(rng, dx, da, d) for d in block_dims]
            matrix = qk.AlgStochasticMatrix(
                qk.TracialAlgebra(block_dims, weights),
                tuple(qk.StochasticOperatorMatrix(dx, da, d, b)
                      for d, b in zip(block_dims, blocks)))
            choi = oracles.tracial_choi(blocks, block_dims, weights, dx, da)
            self._add_qns(rng, f"tracial {(dx, da)} over {block_dims}", (dx, dx, da, da),
                          lambda m=matrix: qk.build_tracial(m), choi, None)
        for (d,) in _instances(inputs.KD2_D):
            self.ops.append({"name": f"kd2 d={d}", "kind": "kd2", "d": d,
                             "graph": qk.Graph.complete(d * d)})

    def _add_qns(self, rng, name, dims, build, choi, table):
        qk = self.qk
        dx, dy, da, db = dims
        states = oracles.classical_inputs(choi, dims)
        if table is None:
            table = oracles.table_of_states(states, dims)
        # a fixed channel (A, B) -> (2, 2) to compose with, carrying no witness
        outer_choi = oracles.local_choi(
            [1.0], [inputs.random_channel_choi(rng, da, 2)],
            [inputs.random_channel_choi(rng, db, 2)], (da, db, 2, 2))
        outer = qk.QnsCorrelation(qk.CorrelationDims(da, db, 2, 2), outer_choi)
        signalling = 0.9 * choi + 0.1 * inputs.signalling_choi(*dims)
        self.ops.append({
            "name": name, "kind": "qns", "build": build, "outer": outer,
            "signalling": qk.QnsCorrelation(qk.CorrelationDims(*dims), signalling),
            "ref_choi": choi, "ref_states": states, "ref_table": table,
            "ref_composed": oracles.compose(outer_choi, (da * db, 4), choi,
                                            (dx * dy, da * db)),
        })

    def warm_up(self) -> None:
        """One untimed round: the first calls of a process run slower."""
        self.run_round(Tally())

    def run_round(self, tally: Tally, tracer=None) -> None:
        for op in self.ops:
            if tracer is not None:
                tracer.op += 1
            run = self._qns if op["kind"] == "qns" else self._kd2
            start = time.perf_counter()
            try:
                out = run(op)
            except Exception as exc:  # a package failure is a result to report
                tally.record(op["name"], time.perf_counter() - start, [repr(exc)])
                continue
            seconds = time.perf_counter() - start
            check = self._check_qns if op["kind"] == "qns" else self._check_kd2
            tally.record(op["name"], seconds, check(op, out))

    def _qns(self, op):
        qk = self.qk
        corr = op["build"]()
        report = qk.qns_report(corr)
        cq = qk.reduce_cqns(corr)
        ns = qk.reduce_ns(corr)
        composed = qk.compose_correlations(op["outer"], corr)
        composed_report = qk.qns_report(composed)
        signalling_report = qk.qns_report(op["signalling"])
        return corr, report, cq, ns, composed, composed_report, signalling_report

    @staticmethod
    def _check_qns(op, out) -> list[str]:
        corr, report, cq, ns, composed, composed_report, sig = out
        problems = []
        _require(problems, report.ok and report.witness_residual is not None
                 and report.witness_residual <= TOL_REPORT,
                 f"report fails or skips the witness: {report.as_dict()}")
        for label, got, ref in (("choi", corr.choi, op["ref_choi"]),
                                ("reduced states", cq.states, op["ref_states"]),
                                ("reduced table", ns.table, op["ref_table"]),
                                ("composition", composed.choi, op["ref_composed"])):
            err = oracles.max_abs(got, ref)
            _require(problems, err <= TOL_MATCH, f"{label} off by {err:.2e}")
        _require(problems, composed_report.ok, f"composition report fails: "
                 f"{composed_report.as_dict()}")
        _require(problems, not sig.ok and max(sig.b_residual, sig.c_residual) > sig.tol
                 and max(sig.hermiticity, sig.psd_defect, sig.tp_residual) <= sig.tol,
                 f"signalling perturbation not caught by the marginals: {sig.as_dict()}")
        return problems

    def _kd2(self, op):
        qk = self.qk
        d = op["d"]
        corr = qk.kd2_colouring(d)
        report = qk.cqns_report(corr)
        rebuilt = qk.witness_residual(corr)
        game = qk.colouring_game(op["graph"], d)
        strategy = qk.perfect_strategy_check(game, corr)
        fair = qk.fair_residual(corr)
        ns = qk.reduce_ns(corr)
        return corr, report, rebuilt, strategy, fair, ns

    @staticmethod
    def _check_kd2(op, out) -> list[str]:
        corr, report, rebuilt, strategy, fair, ns = out
        d = op["d"]
        problems = []
        _require(problems, report.ok, f"cqns report fails: {report.as_dict()}")
        _require(problems, rebuilt <= TOL_REPORT, f"witness rebuild off by {rebuilt:.2e}")
        _require(problems, strategy.ok and strategy.max_residual <= TOL_REPORT,
                 f"not a perfect strategy (max residual {strategy.max_residual:.2e})")
        _require(problems, fair <= TOL_REPORT, f"fair residual {fair:.2e}")
        for key, value in oracles.colouring_defects(corr.states, d * d, d).items():
            _require(problems, value <= TOL_MATCH, f"{key} defect {value:.2e}")
        dims = (d * d, d * d, d, d)
        err = oracles.max_abs(ns.table, oracles.table_of_states(corr.states, dims))
        _require(problems, err <= TOL_MATCH, f"reduced table off by {err:.2e}")
        return problems


# ---------------------------------------------------------------------------
# cli


class CliWorkload:
    """One client running `python -m qnskit` commands back to back."""

    def __init__(self, src: str, workdir: str, seed: int, here: str):
        self.src, self.workdir, self.here = src, workdir, here
        self.startup_s = 0.0
        witnesses = inputs.cli_witnesses(seed)
        self.ref = {}
        for name, (e, f, sigma, dims) in witnesses.items():
            self.ref[name] = oracles.quantum_choi(e, f, sigma, dims, dims)
        e, f, sigma, dims = witnesses["w3"]
        self.dims3 = (dims[0], dims[0], dims[1], dims[1])
        self.ref["w3_states"] = oracles.classical_inputs(self.ref["w3"], self.dims3)
        self.ref["w3_table"] = oracles.quantum_table(e, f, sigma, dims, dims)
        n3 = dims[0] * dims[0]
        m3 = dims[1] * dims[1]
        self.ref["w3_composed"] = oracles.compose(self.ref["w3"], (m3, m3), self.ref["w3"], (n3, m3))
        self.commands = [
            ("build quantum w3", ["build", "quantum", "w3.json", "--out", "q3.json"], 0,
             lambda r: self._check_choi("q3.json", self.ref["w3"]) + self._check_pass(r)),
            ("build quantum w4", ["build", "quantum", "w4.json", "--out", "q4.json"], 0,
             lambda r: self._check_choi("q4.json", self.ref["w4"]) + self._check_pass(r)),
            ("verify q3", ["verify", "q3.json"], 0, self._check_witnessed),
            ("verify q4", ["verify", "q4.json"], 0, self._check_witnessed),
            ("reduce E", ["reduce", "E", "q3.json", "--out", "cq3.json"], 0, self._check_reduce_e),
            ("reduce N", ["reduce", "N", "cq3.json", "--out", "ns3.json"], 0, self._check_reduce_n),
            ("lift", ["lift", "cq3.json", "--out", "l3.json"], 0,
             lambda r: self._check_choi("l3.json", oracles.lift(self.ref["w3_states"], self.dims3))
             + self._check_pass(r)),
            ("compose", ["compose", "q3.json", "q3.json", "--out", "c33.json"], 0,
             lambda r: self._check_choi("c33.json", self.ref["w3_composed"]) + self._check_pass(r)),
            ("kd2 d=3", ["kd2", "--d", "3", "--out", "k3.json"], 0, lambda r: self._check_kd2(r, 3)),
            ("kd2 d=4", ["kd2", "--d", "4", "--out", "k4.json"], 0, lambda r: self._check_kd2(r, 4)),
            ("check-game d=3", ["check-game", "game3.json", "k3.json"], 0, self._check_game),
            ("check-game d=4", ["check-game", "game4.json", "k4.json"], 0, self._check_game),
            ("fair", ["fair", "k3.json"], 0,
             lambda r: self._check_pass(r) + self._small(r, "fair_residual")),
            ("theta", ["theta", "graph.json"], 0, self._check_theta),
            ("verify signalling", ["verify", "signalling.json"], 1, self._check_signalling),
            # The package passes this table today (max() drops the NaN), so the
            # command exits 0 and the operation counts as failed on every run.
            ("verify NaN table", ["verify", "nan.json"], None, self._check_nan),
        ]

    # -- running ---------------------------------------------------------

    def warm_up(self) -> None:
        """Nothing to warm: every command is a fresh process, as for a user."""

    def run_round(self, tally: Tally, tracer=None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + os.pathsep + env.get("PYTHONPATH", "")
        for name, args, expected, check in self.commands:
            if tracer is not None:
                trace_file = os.path.join(self.workdir, "child-trace.json")
                if os.path.exists(trace_file):
                    os.remove(trace_file)
                argv = [sys.executable, os.path.join(self.here, "cli_child.py"), trace_file]
            else:
                argv = [sys.executable, "-m", "qnskit"]
            out_path = os.path.join(self.workdir, "stdout.txt")
            err_path = os.path.join(self.workdir, "stderr.txt")
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                env[SPAWN_TIME_VAR] = repr(time.time())
                start = time.perf_counter()
                proc = subprocess.Popen(argv + args, cwd=self.workdir, env=env,
                                        stdin=subprocess.DEVNULL, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            tally.child_peak_kb = max(tally.child_peak_kb, usage.ru_maxrss)
            with open(out_path, encoding="utf-8") as fh:
                stdout = fh.read()
            with open(err_path, encoding="utf-8") as fh:
                stderr = fh.read()
            result = {"code": proc.returncode, "stdout": stdout, "stderr": stderr}
            problems = []
            if expected is not None and proc.returncode != expected:
                problems.append(f"exit {proc.returncode}, expected {expected}: "
                                f"{stderr.strip()[-300:]}")
            else:
                try:
                    problems += check(result)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
            tally.record(name, seconds, problems, known_fault=expected is None)
            if tracer is not None:
                tracer.op += 1
                if os.path.exists(trace_file):   # absent if the child was killed
                    self._collect_trace(tracer, trace_file)

    def _collect_trace(self, tracer, trace_file: str) -> None:
        with open(trace_file, encoding="utf-8") as fh:
            part = json.load(fh)
        base = len(tracer.spans)
        for _, name, start, end, parent in part["spans"]:
            tracer.spans.append((tracer.op, name, start, end,
                                 parent + base if parent >= 0 else -1))
        for key, value in part["counters"].items():
            tracer.counters[key] += value
        self.startup_s += part["startup_s"]

    # -- checks ----------------------------------------------------------

    def _load(self, name: str) -> dict:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def _report(result) -> dict:
        return json.loads(result["stdout"])

    def _check_pass(self, result) -> list[str]:
        report = self._report(result)
        return [] if report.get("pass") is True else [f"report does not pass: {report}"]

    def _small(self, result, key: str) -> list[str]:
        value = self._report(result)[key]
        return [] if value <= TOL_REPORT else [f"{key} = {value!r}"]

    def _check_choi(self, name: str, ref) -> list[str]:
        err = oracles.max_abs(oracles.decode_matrix(self._load(name)["choi"]), ref)
        return [] if err <= TOL_MATCH else [f"{name} Choi off by {err:.2e}"]

    def _check_witnessed(self, result) -> list[str]:
        return self._check_pass(result) + self._small(result, "witness_residual")

    def _check_reduce_e(self, result) -> list[str]:
        err = oracles.max_abs(oracles.decode_states(self._load("cq3.json")), self.ref["w3_states"])
        problems = [] if err <= TOL_MATCH else [f"reduced states off by {err:.2e}"]
        return problems + self._check_pass(result)

    def _check_reduce_n(self, result) -> list[str]:
        table = np.asarray(self._load("ns3.json")["table"], dtype=float)
        err = oracles.max_abs(table, self.ref["w3_table"])
        problems = [] if err <= TOL_MATCH else [f"reduced table off by {err:.2e}"]
        return problems + self._check_pass(result)

    def _check_kd2(self, result, d: int) -> list[str]:
        states = oracles.decode_states(self._load(f"k{d}.json"))
        problems = (self._check_pass(result) + self._small(result, "properness_residual")
                    + self._small(result, "witness_residual"))
        for key, value in oracles.colouring_defects(states, d * d, d).items():
            if value > TOL_MATCH:
                problems.append(f"{key} defect {value:.2e}")
        return problems

    def _check_game(self, result) -> list[str]:
        return self._check_pass(result) + self._small(result, "max_residual")

    def _check_theta(self, result) -> list[str]:
        value = self._report(result)["theta"]
        err = abs(value - math.sqrt(inputs.CLI_THETA_Q))
        problems = [] if err <= oracles.TOL_THETA else [f"theta {value!r} off by {err:.2e}"]
        return problems + self._check_pass(result)

    def _check_signalling(self, result) -> list[str]:
        r = self._report(result)
        tol = r["tol"]
        ok = (r["pass"] is False and max(r["b_residual"], r["c_residual"]) > tol
              and max(r["hermiticity"], r["psd_defect"], r["tp_residual"]) <= tol)
        return [] if ok else [f"signalling not caught by the marginals: {r}"]

    @staticmethod
    def _check_nan(result) -> list[str]:
        if result["code"] == 0:
            return ["exit 0 on a table containing NaN"]
        if "Traceback" in result["stderr"]:
            return ["traceback instead of a report"]
        return []
