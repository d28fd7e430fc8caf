"""Seeded data generators with known dependence structure and the Monte Carlo
experiments that test bound dominance.

Three generator kinds: a finite-state Markov chain (exact lag-m dependence
coefficients available), an m-dependent sliding-window construction built from
independent seeds (dependence vanishes beyond the lag), and an i.i.d. draw from
a fixed law.  Every replication draws from its own counter-based stream derived
from (seed, replication), so reports are bit-reproducible regardless of
execution order; ``_stream`` starts it, re-keying this thread's one Philox, so
no draw builds a generator.  A spec resolves each kind's data in one branch
of its construction, and every draw and law reads it: the states, one
first-draw table (the cumulative initial law of a chain or the cumulative
i.i.d. law, ``_start_cdf``), a chain's walk tables and the constant marginal
law of the other two kinds.  Only the functions whose algorithm differs by
kind branch on it again (``_path_width``, ``_stack_draws``, ``_paths``,
``beta_at``).  The spec also checks every response a draw can return, so no
draw checks one.
Every draw goes through one sampler: ``_stack_draws`` fills a stack of
replications, each row from its own stream, first with its states' draws
(``_path_width`` of them) and then, when responses are wanted, with its noise
draws; ``_paths`` maps the stack's state draws at once (i.i.d. states by one
inversion of the cumulative law, ``_invert``, m-dependent window sums by one
integer cumulative sum, Markov paths as below).  ``_draw`` adds responses (noise values
by one ``_invert`` of the noise law's table, phi + noise by one add), except
under a one-point noise law, which draws nothing.  Every draw is a map of the
stream's raw 64-bit Philox words, whose values numpy guarantees: a stack reads
each stream once and maps the whole stack at once, each uniform from one word x
as (x >> 11) * 2**-53 (``_uniforms``) and each m_dependent window seed from one
32-bit half of a word by Lemire's bounded integers (``_window_seeds``), the
numbers that ``Generator.random`` and ``Generator.integers`` return; only a row
holding a half that Lemire's map rejects is read again, in numpy's order.
``generate`` is ``_draw``'s stack of one, wrapped in a ``Dataset``.
``deviation_experiment`` reads only the states, so its stacks draw no
responses: the same states, of which the statistic reads only each path's state
counts.  It draws nothing where no path's statistic can reach any t on its
grid (``_reach``): every frequency there is 0 by proof.  A Markov stack whose
step table (the chain's random map, see ``_step_table``) holds at most
``STEP_TABLE_CAP`` cells is walked by
``_walk_stack``, every path of the stack at once: each draw is coded by its
interval through a table over dyadic cells of [0, 1) (by binary search for the
draws in cells that a breakpoint splits), and the walk moves d steps per gather
through the map composed over d steps (``_chunk_table``, with d as large as the
same cap allows).  A larger step table walks each path alone.  Both experiments
cut their replications in order into stacks of at most ``STACK_DRAWS`` cells,
building the chunk table once per n (``_stacks``).  ``weak_error_experiment``
draws (``_draw``) and fits (``regression._fit``) a stack, scoring its truncated fits in one call
(``regression._average_sq_distance``), each with the bits of its score alone.
Both experiments check every input before the first draw.
Samples carry no laws; experiments ask the spec for its exact marginals once
per n.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocking import Z, wilson_stderr
from .bounds import BoundParams, beta_deviation_bound, weak_error_bound
from .entropy import EntropyEstimate, FunctionFamily
from .errors import DomainError, MalformedInputError, SizeError
from .mixing import markov_beta
from .pmf import CELL_CAP, MASS_TOL, FinitePmf, MarkovChainSpec, _check_marginal_cells, _eq_by_value, _integer
from .regression import Dataset, _average_sq_distance, _check_responses, _fit, family_bias, truncate


GENERATOR_KINDS = ("markov", "m_dependent", "iid")
# cells in one stack of replications of the deviation and weak-error experiments
STACK_DRAWS = 2**15
# the most (interval, state) cells of a step table that the stacked walk takes,
# and the most cells of that table composed over d steps (see _chunk_table)
STEP_TABLE_CAP = 2**15
# the longest cumulative table that _invert reads by comparisons: near the crossover with binary
# search for 10**3 draws (2 vCPU, numpy 2.4); at 10**4 draws comparisons win up to about 16 entries,
# at 30 draws binary search wins from 2
INVERT_COMPARE_CAP = 4


_local = threading.local()


def _key_word(name: str, value) -> int:
    """``value`` as a word of ``_stream``'s key: an integer in [0, 2**63), where the stream is
    defined; a bool, a fraction or a value that is not a real number is refused, an integral
    float is read as its integer."""
    if not isinstance(value, numbers.Real):
        raise MalformedInputError(f"{name} must be an integer, got {value!r}")
    # written so that a NaN fails it
    if not 0 <= value < 2**63:
        raise MalformedInputError(f"{name} must be in [0, 2**63), got {value}")
    if isinstance(value, bool) or value != int(value):
        raise MalformedInputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _stream(seed: int, replication: int) -> np.random.Philox:
    """Counter-based stream for one replication, independent of execution order: Philox's
    with key [seed, replication], from counter 0 with no draws buffered, the state in which
    ``Philox(key=[seed, replication])`` starts for a replication below 2**63, where numpy
    keeps the key list integral.

    This thread's one Philox is re-keyed to it on every call, at a fraction of the cost of
    building one, so the stream is valid only until the thread's next call.  That Philox is
    built on first use, so that importing the module does not load numpy.random; every
    re-key overwrites its seed (with only a key given, Philox would seed from OS entropy).
    The state written is this thread's one state dict, of Python integers, whose key alone
    is replaced: the setter reads every value out of it, so its counter and buffer stay zero.
    Every draw is a map of the raw 64-bit words that it returns (``random_raw``).
    """
    try:
        bitgen, state = _local.stream
    except AttributeError:
        bitgen = np.random.Philox(0)
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _local.stream = bitgen, state
    state["state"]["key"] = seed, replication
    bitgen.state = state
    return bitgen


@dataclass(frozen=True)
class GeneratorSpec:
    """A seeded source of dependent (x, y) samples with exact input marginals.

    kinds: "markov" (needs ``chain``), "m_dependent" (sliding window of width
    ``dependence_lag`` over i.i.d. uniform seeds modulo ``alphabet_size``),
    "iid" (needs ``law``).  Responses are phi(x) plus discrete noise, with
    ``phi`` given as its value at each of ``states()`` (zero when omitted); every
    response a draw can return is checked at construction (``_check_responses``).
    ``seed`` is an integer in [0, 2**63), stored as an ``int`` (an integral float or a
    numpy integer is read as the int it stands for).

    Construction checks the kind's fields and resolves its data in one branch
    per kind: its states; the law of its first draw (the chain's initial law or
    the i.i.d. law; the m_dependent kind draws integer seeds), whose cumulative
    table ``_start_cdf`` both of those kinds invert; its walk tables, a chain's
    alone (``_row_cdfs`` and ``_steps``, None for the others); and its constant
    marginal law (the i.i.d. law, or the uniform law of the window sums; None
    for a chain, whose marginals change with the time).  That data and the
    noise tables are held beside the fields, not as fields, so equality,
    ``repr`` and ``dataclasses.replace`` see the fields alone (and ``replace``
    builds them anew).
    """

    kind: str
    seed: int
    chain: MarkovChainSpec | None = None
    dependence_lag: int | None = None
    alphabet_size: int | None = None
    law: FinitePmf | None = None
    phi: np.ndarray | None = None
    noise_values: tuple = (0.0,)
    noise_probs: tuple = (1.0,)
    response_bound: float | None = None

    __eq__ = _eq_by_value

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise MalformedInputError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "seed", _key_word("seed", self.seed))
        start = rows = steps = marginal = None
        if self.kind == "markov":
            if self.chain is None:
                raise MalformedInputError("markov kind requires a chain")
            states, start = self.chain.states, self.chain.initial.probs
            rows = tuple(map(tuple, inverse_cdf(self.chain.transition).tolist()))
            steps = _step_table(rows)
        elif self.kind == "m_dependent":
            lag, size = self.dependence_lag, self.alphabet_size
            if lag is not None and size is not None:
                lag, size = _integer("dependence_lag", lag), _integer("alphabet_size", size)
            if lag is None or size is None or lag < 1 or size < 2:
                raise MalformedInputError("m_dependent kind requires dependence_lag >= 1 and alphabet_size >= 2")
            if max(lag, size) > CELL_CAP:
                raise SizeError(f"dependence_lag and alphabet_size must be at most {CELL_CAP}, got {lag} and {size}")
            states = tuple(range(size))
            # sums of i.i.d. uniforms modulo the alphabet size stay uniform
            marginal = np.full(size, 1.0 / size)
        else:
            if self.law is None:
                raise MalformedInputError("iid kind requires a law")
            states, start, marginal = self.law.support, self.law.probs, self.law.probs
        if not (abs(sum(self.noise_probs) - 1.0) <= MASS_TOL and min(self.noise_probs) >= 0):
            raise MalformedInputError("noise_probs must be a pmf")
        if len(self.noise_values) != len(self.noise_probs):
            raise MalformedInputError("noise_values and noise_probs must have matching length")
        if not np.isfinite(self.noise_values).all():
            raise MalformedInputError("noise_values must be finite")
        object.__setattr__(self, "_states", states)
        k = len(states)
        phi = np.zeros(k) if self.phi is None else np.array(self.phi, dtype=float)
        if phi.shape != (k,):
            raise MalformedInputError(f"phi needs one value per state, got shape {phi.shape}")
        if not np.isfinite(phi).all():
            raise MalformedInputError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        # Sampling tables.  bisect_right on a tuple of Python floats is searchsorted(side="right") on the
        # same float64 row, so the Markov walk skips zero-mass states alike, and inverse_cdf pins every total to 1.0.
        object.__setattr__(self, "_start_cdf", None if start is None else tuple(inverse_cdf(start).tolist()))
        object.__setattr__(self, "_row_cdfs", rows)
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_marginal", marginal)
        object.__setattr__(self, "_noise_cdf", inverse_cdf(self.noise_probs))
        object.__setattr__(self, "_noise_values", np.asarray(self.noise_values, dtype=float))
        # A draw returns phi(s) + v, v a noise value of positive mass (one of zero mass is never drawn);
        # rounding is monotone, so the least and largest such sums decide both response rules for all
        # of them (past the float range a sum is inf).  A one-point law's responses are added once, here.
        noise = self._noise_values[np.asarray(self.noise_probs) > 0.0]
        with np.errstate(over="ignore"):
            extremes = np.array([phi.min() + noise.min(), phi.max() + noise.max()])
            point = phi + noise[0] if len(self.noise_values) == 1 else None
        _check_responses(extremes, self.response_bound)
        object.__setattr__(self, "_point_responses", point)

    def states(self) -> tuple:
        return self._states

    def marginal_laws(self, n: int) -> np.ndarray:
        """Exact per-index laws of X_1..X_n, one row per index: the chain's marginals, or the kind's
        constant law in every row.

        A negative n, or more than ``CELL_CAP`` cells, is refused before any array is built.
        """
        if self._marginal is None:
            return self.chain.marginal_matrix(n)
        _check_marginal_cells("n", n, len(self._marginal))
        return np.full((n, len(self._marginal)), self._marginal)

    def beta_at(self, m: int, n: int) -> float:
        """Lag-m dependence coefficient of the inputs X_1..X_n.

        0 when m >= n: no two of the times are m apart.  Exact for the markov
        kind: the largest beta(X_s, X_{s+m}) over s = 1..n-m, which by the
        Markov property is the coefficient between the past up to s and the
        future from s+m.  0 for the iid kind; for the m_dependent kind, exactly
        0 at or beyond the lag and the trivial bound 1 below it.
        """
        if m >= n or self.kind == "iid":
            return 0.0
        if self.kind == "markov":
            return markov_beta(self.chain, m, horizon=n - m)
        return 0.0 if m >= self.dependence_lag else 1.0


def inverse_cdf(probs) -> np.ndarray:
    """Cumulative sums along the last axis for searchsorted(side="right") draws, with the
    total (and any zero-mass tail sharing it) pinned to 1.0 so that a pmf short of 1
    within tolerance cannot map a draw past its last state."""
    cum = np.cumsum(probs, axis=-1)
    cum[cum >= cum[..., -1:]] = 1.0
    return cum


def _invert(cdf, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` for draws u in [0, 1) and a cumulative table ``cdf``
    whose total is 1.0 (``inverse_cdf``'s): a table of at most ``INVERT_COMPARE_CAP`` entries by
    one comparison per entry below 1.0, a longer one by binary search.

    The table is nondecreasing, so an index counts the entries at most its draw, and no
    entry from the first 1.0 on is at most a draw below 1.0.
    """
    if len(cdf) > INVERT_COMPARE_CAP:
        return np.searchsorted(cdf, u, side="right")
    index = np.zeros(u.shape, dtype=np.intp)
    for edge in cdf:
        if edge >= 1.0:
            break
        index += u >= edge
    return index


def _step_table(rows: tuple) -> tuple | None:
    """The chain's random map as ``(edges, lut, steps)``, or None above ``STEP_TABLE_CAP`` cells.

    The breakpoints below 1.0 of every row, sorted (``edges``), cut [0, 1) into I intervals.
    A draw is below 1.0, so its interval ``searchsorted(edges, u, side="right")``
    decides every comparison that ``bisect_right(rows[s], u)`` makes, and
    ``steps[interval, s]`` is the next state from s.  ``lut`` reads that interval off
    the 2**p dyadic cells of [0, 1), 2**p the power of two in (8I, 16I] (see
    ``_interval_codes``): ``lut[c]`` is the interval of every draw in cell c, or -1
    where a breakpoint lies strictly inside the cell, which is at most one cell in
    eight.  Breakpoints are gathered row by row and stop once the cap is passed.
    """
    k = len(rows)
    edges = set()
    for row in rows:
        edges.update(x for x in row if x < 1.0)
        if (len(edges) + 1) * k > STEP_TABLE_CAP:
            return None
    edges = np.array(sorted(edges))
    # -1.0 lies below every breakpoint: the interval below the first edge
    steps = np.array([[bisect_right(row, x) for row in rows] for x in [-1.0, *edges.tolist()]], dtype=np.int32)
    size = 2 ** ((len(edges) + 1).bit_length() + 3)
    # scaling by a power of two is exact: cell c holds the draws in [c / size, (c + 1) / size)
    lut = np.searchsorted(edges, np.arange(size) / size, side="right").astype(np.int32)
    scaled = edges * size
    lut[scaled[scaled != np.floor(scaled)].astype(np.intp)] = -1
    return edges, lut, steps


def _interval_codes(edges: np.ndarray, lut: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(edges, u, side="right")`` for draws u in [0, 1), from ``_step_table``'s ``lut``.

    A draw's cell is u * 2**p rounded down, exactly; its interval is ``lut`` of the
    cell, and only the draws in split cells are searched.
    """
    cell = np.multiply(u, lut.size, out=np.empty(u.shape, dtype=np.int32), casting="unsafe")
    codes = lut.take(cell)
    split = codes < 0
    # the method: np.searchsorted's Python wrapper leaves objects that CPython keeps for reuse, which the
    # memory tests count (about 120 bytes more after each of a deviation run's first twenty stacks)
    codes[split] = edges.searchsorted(u[split], side="right")
    return codes


def _chunk_table(spec: GeneratorSpec, n: int) -> np.ndarray | None:
    """The chain's random map composed over d steps, or None where ``_paths`` walks paths alone.

    Row ``code * k + s`` holds the d states visited from state s when the d draws
    fall in intervals i_0..i_{d-1}, with code = sum_j i_j * I**j.  d is the most
    steps whose table of I**d * k * d cells stays within ``STEP_TABLE_CAP``, and at
    most n - 1, so that a chain with one interval stops.  At d = 1 it is the step
    table.  The columns are built by doubling: steps a..2a-1 from state s under a
    code are steps 0..a-1 under the code's digits from a on, from where step a-1
    ends.
    """
    if spec._steps is None:
        return None
    steps = spec._steps[2]
    intervals, k = steps.shape
    d = 1
    while d < n - 1 and intervals ** (d + 1) * k * (d + 1) <= STEP_TABLE_CAP:
        d += 1
    columns = np.empty((d, intervals ** d * k), dtype=np.int32)  # columns[j, code * k + s]
    columns[0].reshape(-1, intervals * k)[:] = steps.ravel()
    done = 1
    while done < d:
        more = min(done, d - done)
        # for code = hi * I**done + lo, ends[hi, lo * k + s] is where step done - 1 ends
        ends = columns[done - 1].reshape(-1, intervals ** done * k)
        rows = (k * np.arange(len(ends)))[:, None] + ends
        columns[done:done + more] = columns[:more].take(rows.ravel(), axis=1)
        done += more
    return columns.T.copy()


def _walk_stack(spec: GeneratorSpec, visits: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Indices of the Markov paths driven by the rows of the uniforms ``U``, (paths, n).

    Row r is the path that ``_paths`` walks alone from the draws ``U[r]``.  Each
    draw after the first is coded by its interval (``_interval_codes``), and the
    n-1 steps are cut into N chunks of the d steps of ``visits`` (``_chunk_table``),
    each read by one chunk code.  The N chunk steps are cut into B blocks of
    L = isqrt(N); padding steps at the end fall past n and are dropped.  Pass 1
    follows every block from every state at once (L gathers over (paths, B, k));
    the block starts then chain through those ends (B gathers over the paths);
    pass 2 walks each block again from its own start (L gathers over (paths, B),
    each writing d states).
    """
    edges, lut, steps = spec._steps
    intervals, k = steps.shape
    paths, n = U.shape
    start = _invert(spec._start_cdf, U[:, 0])
    if n == 1:
        return start[:, None]
    d = visits.shape[1]
    chunks = -(-(n - 1) // d)
    L = math.isqrt(chunks)
    B = -(-chunks // L)
    # int32 halves the per-draw arrays: a code times k stays below STEP_TABLE_CAP
    draws = np.zeros((paths, B * L * d), dtype=np.int32)
    draws[:, :n - 1] = _interval_codes(edges, lut, U[:, 1:])
    # codes[r, b, j]: k times the code of chunk j of block b of path r
    codes = draws.reshape(paths, B, L, d) @ (k * intervals ** np.arange(d, dtype=np.int32))
    last = visits[:, -1].copy()
    # ends[r, b, s]: where block b of path r ends when it starts at state s
    ends = np.broadcast_to(np.arange(k), (paths, B, k))
    for j in range(L):
        ends = last.take(codes[:, :, j, None] + ends)
    starts = np.empty((paths, B), dtype=np.intp)
    starts[:, 0] = start
    every = np.arange(paths)
    for b in range(B - 1):
        starts[:, b + 1] = ends[every, b, starts[:, b]]
    out = np.empty((paths, 1 + B * L * d), dtype=np.intp)
    out[:, 0] = start
    walk = out[:, 1:].reshape(paths, B, L, d)  # a view: only the contiguous last axis splits
    state = starts
    for j in range(L):
        walk[:, :, j] = visits.take(codes[:, :, j] + state, axis=0)
        state = walk[:, :, j, -1]
    return out[:, :n]


def _path_width(spec: GeneratorSpec, n: int) -> int:
    """The first draws of a stream that a path of length n reads: n uniforms, or for the
    m_dependent kind n + lag - 1 window seeds."""
    return n + spec.dependence_lag - 1 if spec.kind == "m_dependent" else n


def _stacks(spec: GeneratorSpec, n: int, replications: int, cells: int):
    """Stacks ``(reps, visits)`` of the replications 0..replications-1, in order: each the most reps, one at
    least, whose arrays of ``cells`` cells or of one path's draws (``_path_width``) each hold at most
    ``STACK_DRAWS`` cells; ``visits`` is ``_chunk_table(spec, n)``, built once."""
    size = max(1, STACK_DRAWS // max(cells, _path_width(spec, n)))
    visits = _chunk_table(spec, n)
    for first in range(0, replications, size):
        yield range(first, min(first + size, replications)), visits


def _paths(spec: GeneratorSpec, draws: np.ndarray, visits: np.ndarray | None) -> np.ndarray:
    """Indices into ``spec.states()`` of the paths that the rows of ``draws`` (``_stack_draws``) drive.

    A Markov stack is walked at once when ``visits`` (``_chunk_table``) is given, and
    path by path otherwise, the random map evaluated only at the current state.  The
    m_dependent window sums are integers, so one cumulative sum over the stack takes
    them exactly.
    """
    if spec.kind == "markov":
        if visits is not None:
            return _walk_stack(spec, visits, draws)
        start, rows = spec._start_cdf, spec._row_cdfs
        paths = []
        for u in draws.tolist():
            s = bisect_right(start, u[0])
            path = [s]
            for x in u[1:]:
                s = bisect_right(rows[s], x)
                path.append(s)
            paths.append(path)
        return np.array(paths, dtype=np.intp)
    if spec.kind == "m_dependent":
        lag = spec.dependence_lag
        sums = np.zeros((len(draws), draws.shape[1] + 1), dtype=np.int64)
        # not ndarray.cumsum: each call may leave a new "accumulate" string in CPython's method cache
        np.add.accumulate(draws, axis=1, out=sums[:, 1:])
        windows, size = sums[:, lag:] - sums[:, :-lag], spec.alphabet_size
        # windows %= size, which is slower: numpy divides an integer array by a scalar fast only in floor_divide
        windows -= windows // size * size
        return windows
    return _invert(spec._start_cdf, draws)


def _stack_draws(spec: GeneratorSpec, n: int, reps: range, noise: np.ndarray | None = None) -> np.ndarray:
    """The first draws of the streams of ``reps``, one row of ``_path_width`` draws each.

    Each row's stream ``_stream(spec.seed, rep)`` is read once, as raw 64-bit words into one
    array of the stack: the words of its states' draws (n uniforms, or ceil(w/2) words for w
    window seeds), then, when ``noise`` (len(reps), n) is given, n words for that row of it.
    The stack is then mapped at once, by ``_window_seeds`` and ``_uniforms``.  A row holding
    a half that Lemire's map rejects is read again as numpy reads it, by the same map: each
    rejected half is skipped, and the noise starts at the word after the last half used.
    Uniform states with no noise are read into the stack's own memory.
    """
    seeds = spec.kind == "m_dependent"
    draws = np.empty((len(reps), _path_width(spec, n)), dtype=np.int64 if seeds else float)
    first = -(-draws.shape[1] // 2) if seeds else n
    words = draws.view(np.uint64) if noise is None and not seeds else np.empty(
        (len(reps), first + (0 if noise is None else n)), dtype=np.uint64)
    for row, rep in enumerate(reps):
        words[row] = _stream(spec.seed, rep).random_raw(words.shape[1])
    if seeds:
        size, width = spec.alphabet_size, draws.shape[1]
        rejected = _window_seeds(words, size, draws)
        if rejected is not None and rejected.any():
            for row in np.flatnonzero(rejected.any(axis=1)):
                stream, kept = _stream(spec.seed, reps[row]), []
                while len(kept) < width:
                    # both halves of every word read, so that only a rejected half is skipped
                    halves = np.empty((1, 2 * -(-(width - len(kept)) // 2)), dtype=np.int64)
                    kept += halves[~_window_seeds(stream.random_raw((1, halves.shape[1] // 2)), size, halves)].tolist()
                draws[row] = kept[:width]
                words[row, first:] = stream.random_raw(words.shape[1] - first)
    elif noise is None:
        # on one axis numpy converts the stack's own memory where it lies
        _uniforms(words.ravel(), draws.ravel())
    else:
        _uniforms(words[:, :n], draws)
    if noise is not None:
        _uniforms(words[:, first:], noise)
    return draws


def _window_seeds(words: np.ndarray, size: int, out: np.ndarray) -> np.ndarray | None:
    """Write to ``out`` (rows, w) the integers (h * size) >> 32 in [0, size) of the 32-bit halves h
    of each row's first ceil(w/2) ``words``, low half first: Lemire's bounded integers, by which
    ``Generator.integers`` maps each half that it keeps.  Returns which halves it rejects, those
    whose product's low word falls below (2**32 - size) % size, or None where it rejects none.
    """
    width = out.shape[1]
    # masks and shifts, not a byte view, so that the halves do not depend on the byte order
    np.bitwise_and(words[:, :-(-width // 2)], 0xFFFFFFFF, out=out[:, 0::2], casting="unsafe")
    np.right_shift(words[:, :width // 2], 32, out=out[:, 1::2], casting="unsafe")
    out *= size  # below 2**32 * CELL_CAP
    threshold = (2**32 - size) % size  # 0 for a power of two
    rejected = np.bitwise_and(out, 0xFFFFFFFF) < threshold if threshold else None
    out >>= 32
    return rejected


def _uniforms(words: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the uniforms (x >> 11) * 2**-53 of the raw words x, the doubles that
    ``Generator.random`` maps them to, shifting ``words`` in place.

    One-axis ``words`` may be ``out``'s own memory: numpy converts a one-axis array where it
    lies, and copies overlapping arrays of more axes first.
    """
    # below 2**53 every value converts exactly, and int64 converts faster than uint64
    out[...] = np.right_shift(words, 11, out=words).view(np.int64)
    out *= 2.0**-53


def _draw(spec: GeneratorSpec, n: int, reps: range, visits: np.ndarray | None = None) -> tuple:
    """(state indices, responses) of the replications ``reps``, one row each, each from its own stream.

    Each row takes its states' draws and then n noise uniforms from its stream
    (``_stack_draws``); the stack is then mapped at once: paths by ``_paths`` (walked
    with ``visits`` when given), noise values by one ``_invert``, responses by one
    add.  A one-point noise law draws nothing: every draw would map to its value,
    and no later draw reads the stream, so the responses are read from phi plus that
    value.  The spec checked every phi + noise sum that a draw can return when it
    was built, so no response is checked here, and none overflows.
    """
    u = None if spec._point_responses is not None else np.empty((len(reps), n))
    index = _paths(spec, _stack_draws(spec, n, reps, u), visits)
    if u is None:
        return index, spec._point_responses.take(index)
    noise = spec._noise_values.take(_invert(spec._noise_cdf, u))
    return index, spec.phi.take(index) + noise


def generate(spec: GeneratorSpec, n: int, replication: int = 0) -> Dataset:
    """Draw one replication of length n from its own stream, as a checked ``Dataset``: ``_draw``'s stack of one.

    ``replication`` is an integer in [0, 2**63), as the seed is (``_key_word``).
    """
    if _integer("n", n) < 1:
        raise DomainError("n must be >= 1")
    replication = _key_word("replication", replication)
    index, ys = _draw(spec, n, range(replication, replication + 1))
    return Dataset(states=spec.states(), index=index[0], ys=ys[0], response_bound=spec.response_bound)


def _count_means(states: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each member's mean over each path, (paths, members): the sum over the path's visited states s, in
    state order, of counts[s] * table[:, s], over n, so that a path's means do not depend on its stack.

    The visited (path, state) pairs are coded r * k + s in ascending order, with their counts: by one
    bincount over the stack when k <= n, and otherwise by the runs of each path's sorted states, so that
    no path pays for a row of k counts.
    """
    (paths, n), (members, k) = states.shape, table.shape
    if k <= n:
        counts = np.bincount((states + k * np.arange(paths)[:, None]).ravel(), minlength=paths * k)
        pairs = np.flatnonzero(counts)
        counts = counts[pairs]
    else:
        keys = (np.sort(states, axis=1) + k * np.arange(paths)[:, None]).ravel()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        pairs, counts = keys[starts], np.diff(starts, append=keys.size)
    path, state = np.divmod(pairs, k)
    # total[f * paths + r] adds member f's term of each of path r's pairs, in order; add.at is unbuffered
    total = np.zeros(members * paths)
    np.add.at(total, (path + paths * np.arange(members)[:, None]).ravel(), (table[:, state] * counts).ravel())
    return (total.reshape(members, paths) / n).T


def _reach(table: np.ndarray, avg: np.ndarray, epsilon: float, n: int) -> np.ndarray:
    """Per member f, a number that no path's computed statistic a * mean_f - y_f exceeds, where
    a = 1.0 - epsilon, y = (1.0 + epsilon) * avg (the statistic's own expression, so its own bits) and
    mean_f is ``_count_means``' mean of f over a path of length n.

    With M = max_s f(s), A = max_s |f(s)| and k states, a path's exact counts mean is a weighted
    average of f's values, at most M and at most A in size.  ``_count_means`` computes it as an
    inner product of at most k terms and one division, so within gamma_{k+1} * A of it (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, (3.5)), where gamma_j = j u / (1 - j u)
    and u = 2**-53; a > 0, so the product with a and the subtraction of y round twice more, and the
    statistic is at most a M - y + gamma_{k+3} * (a A + |y|).  The reach is
    a M - y + 2 (k + 4) u (a A + |y|) + tiny, with tiny the least normal float: evaluated in floats,
    its own roundings cost at most (gamma_2 + u) (a A + |y|) in all, which the (k + 2) u left over
    covers, and tiny covers the absolute error that underflow adds.  Where 2 n A passes the float
    range a path's sums may overflow, and the reach is inf.
    """
    k = table.shape[1]
    a, y = 1.0 - epsilon, (1.0 + epsilon) * avg
    size = np.abs(table).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2 * (k + 4) * (np.finfo(float).eps / 2) * (a * size + np.abs(y)) + np.finfo(float).tiny
        reach = a * table.max(axis=1) - y + margin
        reach[~np.isfinite(2.0 * n * size)] = np.inf
    return reach


@dataclass(frozen=True)
class ExperimentReport:
    """Row-per-configuration Monte Carlo report with dominance flags."""

    rows: tuple
    metadata: dict

    @property
    def all_dominant(self) -> bool:
        return all(row["dominant"] for row in self.rows)


def deviation_experiment(
    spec: GeneratorSpec,
    family: FunctionFamily,
    params: BoundParams,
    entropy: EntropyEstimate,
    t_grid: Sequence[float],
    replications: int,
) -> ExperimentReport:
    """Frequency of the uniform deviation event against its closed-form bound.

    The statistic per replication is sup over family members of
    (1-eps) * empirical mean - (1+eps) * average mean of the member over the
    sample; frequencies of {statistic >= t} are paired with the dependent-case
    deviation bound at each t on the grid, all evaluated before the first draw.
    Replications are drawn in stacks (``_stacks``), so that a stack's draws,
    paths, state counts and member means each hold at most STACK_DRAWS cells.
    The empirical mean is a function of each path's state counts (see
    ``_count_means``), and each stack adds its hits per t to one counter.
    An empirical mean never exceeds max_s f(s), so where every member's
    (1-eps) * max_s f(s) - (1+eps) * average mean, plus a margin of
    2 (k + 4) u ((1-eps) max_s |f(s)| + (1+eps) |average mean|) and the least
    normal float for rounding (k states, u = 2**-53; derived in ``_reach``),
    lies below every t, no statistic reaches the grid: nothing is drawn, and
    every count is 0.  ``replications`` is at most 2**63, the range of the
    stream keys.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    # replication numbers are stream keys, in [0, 2**63)
    if replications > 2**63:
        raise SizeError(f"replications must be at most 2**63, got {replications}")
    table = family.table  # (members, n_states)
    if table is None:
        raise DomainError("the deviation experiment needs an enumerable family")
    if family.states != spec.states():
        raise MalformedInputError("the family must be tabulated over the generator's states")
    n, m = params.n, params.m
    laws = spec.marginal_laws(n)
    avg = (laws @ table.T).mean(axis=0)  # per-member average mean
    beta = spec.beta_at(m, n)
    bounds = [beta_deviation_bound(params, entropy, float(t), beta_at_m=beta) for t in t_grid]

    t_values = np.array(t_grid, dtype=float)
    hits = np.zeros(len(t_values), dtype=np.int64)
    # where no path's statistic can reach any t on the grid, every count is 0 by proof
    if not (_reach(table, avg, params.epsilon, n).max() < t_values).all():
        for reps, visits in _stacks(spec, n, replications, max(table.shape)):
            emp = _count_means(_paths(spec, _stack_draws(spec, n, reps), visits), table)
            stat = ((1.0 - params.epsilon) * emp - (1.0 + params.epsilon) * avg).max(axis=1)
            hits += (stat[:, None] >= t_values).sum(axis=0)
            del emp, stat  # no array of a stack outlives it

    rows = []
    for t, count, bound in zip(t_grid, hits.tolist(), bounds):
        freq, se = count / replications, wilson_stderr(count, replications)
        vacuous = bound >= 1.0
        rows.append({"n": n, "m": m, "t": float(t), "frequency": freq, "stderr": se, "bound": bound,
                     "dominant": vacuous or freq + Z * se <= bound, "vacuous": vacuous})
    meta = {"seed": spec.seed, "replications": replications, "beta_at_m": beta, "kind": spec.kind}
    return ExperimentReport(tuple(rows), meta)


def weak_error_experiment(
    spec: GeneratorSpec,
    family: FunctionFamily,
    params: BoundParams,
    truth: np.ndarray,
    n_grid: Sequence[int],
    replications: int,
) -> ExperimentReport:
    """Measured weak error of the truncated fit against its closed-form bound.

    ``truth`` holds the true regression function's value at each generator
    state, finite.  ``replications`` is at most ``CELL_CAP``, the cells of the
    array of errors.  Every n's ``BoundParams``, the theorem's hypotheses and the
    cap on the cells of its marginal laws are checked before the first draw; no
    n's laws are built before that n is reached.  For each n the replications
    are drawn (``_draw``, whose responses the spec checked when it was built)
    and fitted (``_fit``) in stacks, each holding at most ``STACK_DRAWS`` cells
    of the largest per-replication array: the fit's design columns or member
    risks, the fitted values, the draws.  Each stack's fits are then truncated
    and scored in one call by their average-mean squared distance to the truth
    under the exact laws of X_1..X_n, each replication with the same numbers as
    if it were fitted and scored alone.  The bias, inf over the family of that
    distance, is computed once per n.  One row per n on the grid, vacuous when
    its bound is at least max_s (B + |truth(s)|)**2, which no truncated fit's
    error exceeds; the metadata carries the log-log slope of the measured error
    over the grid for trend checks, None unless the grid holds at least two
    distinct n and every error is positive.
    """
    replications = _integer("replications", replications)
    if replications < 1:
        raise DomainError("replications must be >= 1")
    # one error per replication, in one array
    if replications > CELL_CAP:
        raise SizeError(f"replications must be at most {CELL_CAP}, got {replications}")
    if family.states != spec.states():
        raise MalformedInputError("the family must be tabulated over the generator's states")
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (len(family.states),):
        raise MalformedInputError("truth needs one value per state of the family")
    if not np.isfinite(truth).all():
        raise MalformedInputError("truth must be finite")
    grid = [dataclasses.replace(params, n=_integer("n_grid", n)) for n in n_grid]
    for p in grid:
        p.check_weak_error_hypotheses()
        _check_marginal_cells("n", p.n, len(spec.states()))
    # cells per replication: its fit's design columns or member risks, its fitted values, its draws
    width = family.table.shape[0] if family.design is None else family.design.shape[1]
    with np.errstate(over="ignore"):  # past float range it is inf, which only an infinite bound reaches
        trivial = float(np.square(params.B + np.abs(truth)).max())
    rows = []
    for p in grid:
        laws = spec.marginal_laws(p.n)
        errors = np.empty(replications)
        for reps, visits in _stacks(spec, p.n, replications, max(p.n * width, len(truth))):
            index, ys = _draw(spec, p.n, reps, visits)
            errors[reps.start:reps.stop] = _average_sq_distance(truncate(_fit(family, index, ys)[0], p.B), truth, laws)
            del index, ys  # no array of a stack outlives it
        mean = float(errors.mean())
        stderr = float(errors.std(ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        bias = family_bias(family, truth, laws, p.B)
        breakdown = weak_error_bound(p, bias, beta_at_m=spec.beta_at(p.m, p.n))
        dominant = mean <= breakdown.total + Z * stderr
        rows.append(
            {
                "n": p.n,
                "m": p.m,
                "replications": replications,
                "weak_error": mean,
                "stderr": stderr,
                "bias": bias,
                "bound_total": breakdown.total,
                "bound_variance": breakdown.variance_term,
                "bound_beta": breakdown.beta_error_term,
                "dominant": dominant,
                "vacuous": breakdown.total >= trivial,
            }
        )
    slope = None
    if len({r["n"] for r in rows}) > 1 and all(r["weak_error"] > 0 for r in rows):
        logs_n = np.log([r["n"] for r in rows])
        logs_e = np.log([r["weak_error"] for r in rows])
        slope = float(np.polyfit(logs_n, logs_e, 1)[0])
    meta = {"seed": spec.seed, "replications": replications, "loglog_slope": slope}
    return ExperimentReport(tuple(rows), meta)
