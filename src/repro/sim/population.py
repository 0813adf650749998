"""Million-node population tier: the vectorised honest plane.

The paper's accountability guarantees matter at gossip scale, but a
full-fidelity session carries a Python object graph per node.  This
module scales a scenario to millions of nodes by partitioning the
population:

* a small **full-fidelity cohort** (``spec.nodes`` ids ``0..n-1``: the
  source, every deviant, every monitor of sampled exchanges, and the
  seeded honest sample) runs the real protocol, bit-identical to a
  plain :class:`~repro.sim.execution.SerialPolicy` run of the same
  cohort-sized spec;
* the remaining **honest plane** (ids ``spec.nodes..population-1``)
  lives in numpy arrays updated in bulk once per round.

The plane is *calibrated, not simulated*: a passive
:class:`PlaneCalibrationTap` measures the cohort's honest consumers —
per round, per message kind, bytes sent and received per node — and the
plane replays those per-kind means across its width, modulating each
node by per-round Poisson degree draws (in-degree, out-degree,
monitor-load) normalised to their realized mean.  Per-round per-kind
plane means therefore equal the cohort's honest-consumer means exactly;
only the across-node variance is synthetic (Poisson contact counts, the
same model the paper's membership views induce).  Degrees come from an
exact table sampler (:class:`PoissonDegreeSampler`: Walker alias over
the pmf truncated below a 2^-60 tail, one uniform per draw), not from
an approximation of the distribution.

Crypto is memoised over equivalence classes of identical exchanges:
one real representative evaluation per round on the plane's *own*
hasher (the cohort hasher is never touched, preserving bit-identity),
the fan-out credited to ``memoised_operations``, and a calibrated
top-up so real + memoised plane totals reconcile with what a
full-fidelity run of the plane would have cost.

The plane keeps one ``uint16`` degree per driver per node; the draws,
the row arithmetic and the write-through to a
:class:`~repro.sim.trace.ColumnarRoundSpill` run over blocks of
``NODE_BLOCK`` nodes, and collection reads windows back through
:class:`~repro.sim.metrics.SpilledMeter`.
"""

from __future__ import annotations

import math
import resource
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.verification import (
    ack_hash,
    serve_hashes,
    split_products,
)
from repro.crypto.homomorphic import HomomorphicHasher
from repro.scenarios.spec import ScenarioResult, ScenarioSpec
from repro.sim.message import Message
from repro.sim.metrics import SpilledMeter
from repro.sim.trace import NODE_BLOCK, ColumnarRoundSpill

__all__ = [
    "PlaneCalibrationTap",
    "PoissonDegreeSampler",
    "PopulationPlane",
    "PopulationResult",
    "build_population_result",
    "wire_population",
]

#: Which degree draw modulates a kind's per-node traffic, as
#: ``kind -> (upload driver, download driver)``.  ``out``/``in`` are
#: gossip out-/in-degree, ``mon`` is monitor load, ``uniform`` applies
#: the mean without modulation.  Derivation: message m of Figs. 5-6 is
#: sent once per link of the named degree (e.g. a node uploads one
#: KeyRequest per successor contacted, downloads one per predecessor
#: that contacted it).
_KIND_DRIVERS: Dict[str, Tuple[str, str]] = {
    "key_request": ("out", "in"),
    "key_response": ("in", "out"),
    "serve": ("out", "in"),
    "attestation": ("out", "in"),
    "ack": ("in", "out"),
    "ack_copy": ("in", "mon"),
    "attestation_relay": ("in", "mon"),
    "declaration_ack": ("mon", "in"),
    "monitor_broadcast": ("mon", "mon"),
}

#: The degree draws a round makes, in draw order.
_DEGREE_DRIVERS: Tuple[str, ...] = ("in", "out", "mon")


class PoissonDegreeSampler:
    """Exact Poisson(``lam``) draws from an alias table.

    The support is truncated at the first ``K`` whose discarded tail
    ``P[X >= K]`` is below ``TAIL_BOUND`` (bounded by the geometric
    series ``pmf(K) / (1 - lam / (K + 1))``); the pmf over ``0..K-1``
    comes from ``lgamma`` and is renormalised over that support.  A
    Walker/Vose alias table over it turns one uniform into one draw:
    ``u * K`` splits into a column index and an acceptance fraction,
    the column keeps its own index with probability ``prob[column]``
    and yields ``alias[column]`` otherwise.  That is the Poisson
    distribution itself up to the truncation, at a cost that does not
    depend on ``lam`` (numpy's own sampler loops over ~``lam`` uniforms
    per draw below ``lam = 10``).

    Degrees come out as ``uint16``.  A draw runs a node block at a time
    through scratch allocated once, consuming the generator in order.
    """

    TAIL_BOUND = 2.0**-60

    def __init__(self, lam: float) -> None:
        if not lam > 0:
            raise ValueError("Poisson rate must be positive")
        log_lam = math.log(lam)
        masses: List[float] = []
        while True:
            k = len(masses)
            mass = math.exp(k * log_lam - lam - math.lgamma(k + 1))
            if k + 1 > lam and mass / (1.0 - lam / (k + 1)) < (
                self.TAIL_BOUND
            ):
                break
            masses.append(mass)
        total = math.fsum(masses)
        pmf = [mass / total for mass in masses]
        #: pmf over the truncated support ``0..size-1`` (sums to 1).
        self.pmf = np.array(pmf)
        self.size = size = len(pmf)
        # Vose's construction: pair each under-full column with an
        # over-full one until every column holds exactly 1/size.
        scaled = [mass * size for mass in pmf]
        prob = [1.0] * size
        alias = list(range(size))
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            low = small.pop()
            high = large.pop()
            prob[low] = scaled[low]
            alias[low] = high
            scaled[high] = (scaled[high] + scaled[low]) - 1.0
            (small if scaled[high] < 1.0 else large).append(high)
        #: per-column probability of keeping the column's own index.
        self.prob = np.array(prob)
        #: per-column value drawn when the column's own index is not kept.
        self.alias = np.array(alias, dtype=np.intp)
        # ``_outcome[2 * column]`` is the alias, ``[2 * column + 1]``
        # the column itself: the accept bit is the low index bit, so
        # the select is a gather and not a data-dependent branch.
        self._outcome = np.empty(2 * size, dtype=np.uint16)
        self._outcome[0::2] = self.alias
        self._outcome[1::2] = np.arange(size)
        self._uniforms = np.empty(NODE_BLOCK, dtype=np.float64)
        self._column = np.empty(NODE_BLOCK, dtype=np.intp)
        self._threshold = np.empty(NODE_BLOCK, dtype=np.float64)
        self._accept = np.empty(NODE_BLOCK, dtype=bool)

    def lookup(self, uniforms: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Map up to ``NODE_BLOCK`` uniforms in [0, 1) to ``out`` (uint16).

        ``uniforms`` is used as scratch and holds the acceptance
        fractions afterwards.
        """
        width = len(uniforms)
        column, accept = self._column[:width], self._accept[:width]
        np.multiply(uniforms, self.size, out=uniforms)
        # Truncation gives the column.  It is below ``size`` for every
        # double u < 1 (u * size falls at least half an ulp short of
        # size); the gathers clip all the same, which is also numpy's
        # cheaper mode, so a stray 1.0 cannot index past the tables.
        np.copyto(column, uniforms, casting="unsafe")
        np.subtract(uniforms, column, out=uniforms)
        threshold = self._threshold[:width]
        self.prob.take(column, out=threshold, mode="clip")
        np.less(uniforms, threshold, out=accept)
        column <<= 1
        column += accept
        return self._outcome.take(column, out=out, mode="clip")

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (uint16) with fresh degrees, one uniform each."""
        for lo in range(0, len(out), NODE_BLOCK):
            block = out[lo : lo + NODE_BLOCK]
            uniforms = self._uniforms[: len(block)]
            self.lookup(rng.random(out=uniforms), block)
        return out


class PlaneCalibrationTap:
    """Passive per-round, per-kind byte accounting of honest consumers.

    Installed as a network :class:`~repro.sim.network.TrafficTap`; under
    capture-based policies the taps are evaluated at merge time in the
    reconstructed delivery order, so calibration is identical across
    execution policies.  Rounds are consumed (and freed) by the plane as
    it steps, so the tap's memory stays O(kinds), not O(rounds).
    """

    def __init__(self, honest_ids) -> None:
        self.honest_ids = frozenset(honest_ids)
        if not self.honest_ids:
            raise ValueError(
                "plane calibration needs at least one honest cohort "
                "consumer"
            )
        #: round -> kind -> [bytes uploaded, bytes downloaded] summed
        #: over honest cohort consumers.
        self._rounds: Dict[int, Dict[str, List[int]]] = {}
        #: round -> a representative Serve received by an honest
        #: consumer (entries + key_prev drive the class-crypto sample).
        self._serves: Dict[int, Message] = {}
        #: round -> a fresh per-link prime issued by an honest consumer.
        self._primes: Dict[int, int] = {}

    def observe(self, message: Message, size: int) -> None:
        honest = self.honest_ids
        sender_honest = message.sender in honest
        recipient_honest = message.recipient in honest
        if not (sender_honest or recipient_honest):
            return
        rnd = message.round_no
        bucket = self._rounds.setdefault(rnd, {})
        pair = bucket.setdefault(message.kind, [0, 0])
        if sender_honest:
            pair[0] += size
        if recipient_honest:
            pair[1] += size
        kind = message.kind
        if kind == "serve" and recipient_honest:
            if rnd not in self._serves and getattr(
                message, "entries", ()
            ):
                self._serves[rnd] = message
        elif kind == "key_response" and sender_honest:
            if rnd not in self._primes:
                prime = getattr(message, "prime", 0)
                if prime > 1:
                    self._primes[rnd] = prime

    def consume_round(
        self, round_no: int
    ) -> Tuple[Dict[str, Tuple[int, int]], Optional[Message], int]:
        """This round's (kind sums, representative serve, prime); frees it."""
        bucket = self._rounds.pop(round_no, {})
        serve = self._serves.pop(round_no, None)
        prime = self._primes.pop(round_no, 0)
        sums = {kind: (up, down) for kind, (up, down) in bucket.items()}
        return sums, serve, prime


class PopulationPlane:
    """The vectorised honest plane of one population-tier run.

    Stepped by the engine once per round (after the full-fidelity
    cohort finishes the round), entirely outside the execution policy —
    a population scenario therefore runs identically under serial,
    sharded and parallel policies.
    """

    def __init__(
        self,
        plane_size: int,
        tap: PlaneCalibrationTap,
        cohort_hasher: HomomorphicHasher,
        fanout: int,
        seed: int,
        spill_dir: Optional[str] = None,
    ) -> None:
        if plane_size < 1:
            raise ValueError("plane needs at least one node")
        if fanout < 1:
            raise ValueError("plane fanout must be at least 1")
        self.plane_size = plane_size
        self.tap = tap
        self.fanout = fanout
        self.cohort_hasher = cohort_hasher
        # The plane's own hasher: same modulus and backend as the
        # cohort's, but separate counters and caches so the cohort's
        # crypto tallies stay bit-identical to a plain serial run.
        self.hasher = HomomorphicHasher(
            modulus=cohort_hasher.modulus, backend=cohort_hasher.backend
        )
        self.spill = ColumnarRoundSpill(
            plane_size, directory=spill_dir, fields=("up", "down")
        )
        self._rng = np.random.default_rng(seed)
        self._sampler = PoissonDegreeSampler(fanout)
        # All the plane keeps per node: the round's degrees per driver
        # (with 1 / their realized mean).  The row build's float
        # accumulator, its scratch and the int64 rows are a block wide.
        self._degrees = {
            driver: np.empty(plane_size, dtype=np.uint16)
            for driver in _DEGREE_DRIVERS
        }
        self._inv_mean: Dict[str, float] = {}
        block = min(plane_size, NODE_BLOCK)
        self._acc = np.empty(block, dtype=np.float64)
        self._term = np.empty(block, dtype=np.float64)
        self._rows = {
            name: np.empty(block, dtype=np.int64)
            for name in self.spill.fields
        }
        self._cohort_ops_mark = cohort_hasher.operations
        self.rounds_done = 0

    def _draw_degrees(self) -> None:
        """Redraw every driver's Poisson degrees and 1 / their mean.

        Scaling by the *realized* mean (not the expectation) pins the
        plane's per-round per-kind mean exactly to the calibrated
        cohort mean; only across-node variance is synthetic.  A draw
        that is zero everywhere modulates nothing: it becomes all ones.
        """
        for driver, degrees in self._degrees.items():
            self._sampler.draw(self._rng, degrees)
            # Degrees are small integers, so the int64 sum is exact and
            # the mean is the one a float64 vector's mean() would give.
            mean = int(degrees.sum(dtype=np.int64)) / self.plane_size
            if mean <= 0.0:
                degrees.fill(1)
                mean = 1.0
            self._inv_mean[driver] = 1.0 / mean

    def _build_row(
        self, driver_bytes: Counter, n_honest: int, lo: int, out: np.ndarray
    ) -> None:
        """Write one direction's byte row for nodes ``lo..`` to ``out``.

        ``driver_bytes`` is the honest cohort's bytes of the round per
        driver, every kind the driver modulates already summed.  Each
        degree vector then enters once, times the scalar
        ``bytes / n_honest / realized mean``: a row costs one
        multiply-add per driver however many kinds the round carried.
        """
        acc, term = self._acc[: len(out)], self._term[: len(out)]
        acc.fill(driver_bytes["uniform"] / n_honest)
        for driver, degrees in self._degrees.items():
            total = driver_bytes[driver]
            if total:
                weight = total / n_honest * self._inv_mean[driver]
                np.multiply(degrees[lo : lo + len(out)], weight, out=term)
                acc += term
        np.rint(acc, out=acc)
        np.copyto(out, acc, casting="unsafe")

    def end_round(self, round_no: int) -> None:
        sums, serve, prime = self.tap.consume_round(round_no)
        n_honest = len(self.tap.honest_ids)
        up_bytes: Counter = Counter()
        down_bytes: Counter = Counter()
        for kind, (up_sum, down_sum) in sums.items():
            # A kind without a driver applies its mean unmodulated.
            up_driver, down_driver = _KIND_DRIVERS.get(
                kind, ("uniform", "uniform")
            )
            up_bytes[up_driver] += up_sum
            down_bytes[down_driver] += down_sum
        self._draw_degrees()
        for lo in range(0, self.plane_size, NODE_BLOCK):
            width = min(NODE_BLOCK, self.plane_size - lo)
            rows = {name: row[:width] for name, row in self._rows.items()}
            self._build_row(up_bytes, n_honest, lo, rows["up"])
            self._build_row(down_bytes, n_honest, lo, rows["down"])
            self.spill.append_round(rows, start=lo)
        self._account_crypto(serve, prime, n_honest)
        self.rounds_done += 1

    def _account_crypto(
        self,
        serve: Optional[Message],
        prime: int,
        n_honest: int,
    ) -> None:
        """One real class representative + calibrated memoised top-up.

        Target: the plane's per-round crypto cost is the cohort's
        per-honest-consumer hash count scaled to the plane width.  One
        representative exchange per round is evaluated for real (same
        code path a sampled exchange would take), its fan-out plus a
        top-up credited to ``memoised_operations`` — so
        ``operations + memoised_operations`` reconciles with
        full-fidelity counts while real work stays O(1) per round.
        """
        hasher = self.hasher
        cohort_delta = (
            self.cohort_hasher.operations - self._cohort_ops_mark
        )
        self._cohort_ops_mark = self.cohort_hasher.operations
        target = round(cohort_delta / n_honest * self.plane_size)
        ops_before = hasher.operations
        memo_before = hasher.memoised_operations
        if serve is not None:
            products = split_products(hasher, serve.entries)
            ack_hash(hasher, products, serve.key_prev)
            if prime > 1:
                serve_hashes(hasher, products, prime)
            real_ops = hasher.operations - ops_before
            hasher.memoised_operations += real_ops * (
                max(1, self.fanout) - 1
            )
        done = (hasher.operations - ops_before) + (
            hasher.memoised_operations - memo_before
        )
        if target > done:
            hasher.memoised_operations += target - done

    def meter(self) -> SpilledMeter:
        """Windowed read access over the spilled plane rows."""
        return SpilledMeter(self.spill)

    def stats(self) -> Dict[str, object]:
        return {
            "plane_nodes": self.plane_size,
            "rounds": self.rounds_done,
            "real_hashes": self.hasher.operations,
            "memoised_hashes": self.hasher.memoised_operations,
            "spill_bytes": self.spill.bytes_on_disk(),
        }

    def close(self) -> None:
        self.spill.close()


def wire_population(spec: ScenarioSpec, session) -> None:
    """Attach the calibration tap and the plane to a built session."""
    if spec.population <= spec.nodes:
        raise ValueError(
            "population tier needs plane nodes beyond the cohort"
        )
    deviants = set(spec.deviant_nodes())
    honest = [
        node_id
        for node_id in sorted(session.nodes)
        if node_id not in deviants
    ]
    tap = PlaneCalibrationTap(honest)
    simulator = session.simulator
    simulator.network.add_tap(tap)
    config = session.context.config
    plane = PopulationPlane(
        plane_size=spec.population - spec.nodes,
        tap=tap,
        cohort_hasher=session.context.hasher,
        fanout=config.fanout,
        seed=spec.seed + 0x5EED,
        spill_dir=spec.population_spill_dir,
    )
    simulator.attach_plane(plane)


@dataclass
class PopulationResult(ScenarioResult):
    """A :class:`ScenarioResult` extended with the plane's measurements.

    The inherited fields (``node_kbps``, ``verdicts``, ``convicted``,
    ``crypto_hashes``...) describe the full-fidelity cohort alone and
    stay comparable with a plain run of the cohort-sized spec; the
    plane adds population-wide aggregates on top.
    """

    population: int = 0
    #: steady-state download Kbps of the whole population (cohort
    #: consumers + plane), the Fig. 9 unit at scale.
    population_mean_kbps: float = 0.0
    plane_mean_kbps: float = 0.0
    plane_stats: Dict[str, object] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: plane per-node Kbps vector, kept as a numpy array (a million
    #: floats; never expanded into a dict).
    plane_kbps: object = field(default=None, repr=False)

    #: CDF decimation bound: merged population CDFs are downsampled to
    #: at most this many points so JSON exports stay small.
    MAX_CDF_POINTS = 2048

    def cdf(self) -> List[Tuple[float, float]]:
        """Population-wide bandwidth CDF (cohort + plane), decimated."""
        values = np.asarray(
            sorted(self.node_kbps.values()), dtype=np.float64
        )
        if self.plane_kbps is not None:
            values = np.concatenate(
                [values, np.asarray(self.plane_kbps, dtype=np.float64)]
            )
            values.sort(kind="stable")
        n = len(values)
        if n == 0:
            return []
        ranks = (np.arange(n, dtype=np.float64) + 1.0) / n
        if n > self.MAX_CDF_POINTS:
            idx = np.linspace(0, n - 1, self.MAX_CDF_POINTS)
            idx = np.unique(idx.astype(np.int64))
            values = values[idx]
            ranks = ranks[idx]
        return list(zip(values.tolist(), ranks.tolist()))

    def summary(self) -> Dict[str, object]:
        out = super().summary()
        out["population"] = self.population
        out["population_mean_down_kbps"] = round(
            self.population_mean_kbps, 1
        )
        out["plane_mean_down_kbps"] = round(self.plane_mean_kbps, 1)
        out["peak_rss_mb"] = round(self.peak_rss_mb, 1)
        out["plane"] = dict(self.plane_stats)
        return out


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS, KiB on Linux and the BSDs.
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def build_population_result(
    spec: ScenarioSpec, session, base: ScenarioResult
) -> PopulationResult:
    """Fold the plane's spilled measurements into a scenario result.

    Reads the steady-state window back from the spill, then closes it
    (temporary spill directories are removed; a user-supplied
    ``population_spill_dir`` keeps its files).
    """
    plane = session.simulator.planes[0]
    try:
        meter = plane.meter()
        plane_kbps = meter.window_kbps_vector(
            round_seconds=session.simulator.round_seconds,
            first_round=spec.warmup_rounds,
            direction="down",
        )
        plane_mean = float(plane_kbps.mean()) if len(plane_kbps) else 0.0
        cohort_sum = sum(base.node_kbps.values())
        total_consumers = len(base.node_kbps) + len(plane_kbps)
        population_mean = (
            (cohort_sum + float(plane_kbps.sum())) / total_consumers
            if total_consumers
            else 0.0
        )
        stats = plane.stats()
    finally:
        # Close unconditionally: a collection that dies mid-read must
        # not leak the spill's temp directory.
        plane.close()
    return PopulationResult(
        **{f.name: getattr(base, f.name) for f in fields(base)},
        population=spec.population,
        population_mean_kbps=population_mean,
        plane_mean_kbps=plane_mean,
        plane_stats=stats,
        peak_rss_mb=peak_rss_mb(),
        plane_kbps=plane_kbps,
    )
