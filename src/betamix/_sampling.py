"""Sampling for ``simulate``'s generators: the streams, a spec's sampling tables, the walks and the draws.

Every replication draws from its own counter-based stream derived from (seed, replication), so
reports are bit-reproducible regardless of execution order; ``_stream`` starts it, re-keying this
thread's one Philox, so no draw builds a generator.  ``tables`` builds a spec's sampling tables
from the data its construction resolves: one first-draw table (the cumulative initial law of a
chain or the cumulative i.i.d. law, ``_start_cdf``), a chain's walk tables (its cumulative rows and
its step table, see ``_step_table``) and the noise law's cumulative table.

``STACK_DRAWS`` is the sampler's one cell budget: no working array of a draw (a stack, a step table,
a chunk table) holds more cells.  ``draw`` is the one way to draw: it cuts the replications asked
for, in order, into stacks of at most ``STACK_DRAWS`` cells, and returns each stack's state indices,
and its responses when they are asked for.  A stack's rows are each read from their own stream by
``_stack_draws``, first with their states' draws (``_path_width`` of them) and then, when responses
are wanted, with their noise draws; ``_paths`` maps the stack's state draws at once (i.i.d. states
by one inversion of the cumulative law, ``_invert``, m-dependent window sums by one integer
cumulative sum, Markov paths as below).  Responses are noise values by one ``_invert`` of the noise
law's table and phi + noise by one add, except under a one-point noise law, which draws nothing.
Only the functions whose algorithm differs by kind branch on it (``_path_width``, ``_stack_draws``,
``_paths``).
Every draw is a map of the stream's raw 64-bit Philox words, whose values numpy guarantees: a
stack reads each stream once and maps the whole stack at once, each uniform from one word x as
(x >> 11) * 2**-53 (``_uniforms``) and each m_dependent window seed from one 32-bit half of a word
by Lemire's bounded integers (``_window_seeds``), the numbers that ``Generator.random`` and
``Generator.integers`` return; only a row holding a half that Lemire's map rejects is read again,
in numpy's order.
``draw`` also decides how a Markov stack is walked.  When a draw holds more than one replication
and the chain's step table (its random map) holds at most ``STACK_DRAWS`` cells, every path of
a stack is walked at once by ``_walk_stack``: each draw is coded by its interval through a table
over dyadic cells of [0, 1) (by binary search for the draws in cells that a breakpoint splits), and
the walk moves d steps per gather through the map composed over d steps (``_chunk_table``, built
once per draw, with d as large as the same budget allows).  A draw of one replication
(``generate``'s) walks its path alone through the step table, which for one path beats building a
chunk table: its draws after the first are coded at once by binary search of the breakpoints, and
each step is one lookup in the table held as a list.  Only a chain with no step table (above
``STACK_DRAWS`` cells) walks each path alone by bisection of the current state's cumulative row.
"""
from __future__ import annotations

import math
import numbers
import threading
from bisect import bisect_right

import numpy as np

from .errors import MalformedInputError

# the sampler's one cell budget, the most cells of one working array of a draw: a stack (its widest
# per-replication array times its replications), a step table that the stacked walk takes, and that
# table composed over d steps (see _chunk_table)
STACK_DRAWS = 2**15
# the longest cumulative table that _invert reads by comparisons: near the crossover with binary
# search for 10**3 draws (2 vCPU, numpy 2.4); at 10**4 draws comparisons win up to about 16 entries,
# at 30 draws binary search wins from 2
INVERT_COMPARE_CAP = 4


_local = threading.local()


def key_word(name: str, value) -> int:
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
    """The chain's random map as ``(edges, lut, steps, flat)``, or None above ``STACK_DRAWS`` cells.

    The breakpoints below 1.0 of every row, sorted (``edges``), cut [0, 1) into I intervals.
    A draw is below 1.0, so its interval ``searchsorted(edges, u, side="right")``
    decides every comparison that ``bisect_right(rows[s], u)`` makes, and
    ``steps[interval, s]`` is the next state from s; ``flat`` is ``steps`` as one list of
    Python ints, ``flat[interval * k + s]``, which a lone walk reads.  ``lut`` reads that interval off
    the 2**p dyadic cells of [0, 1), 2**p the power of two in (8I, 16I] (see
    ``_interval_codes``): ``lut[c]`` is the interval of every draw in cell c, or -1
    where a breakpoint lies strictly inside the cell, which is at most one cell in
    eight.  Breakpoints are gathered row by row and stop once the cap is passed.
    """
    k = len(rows)
    edges = set()
    for row in rows:
        edges.update(x for x in row if x < 1.0)
        if (len(edges) + 1) * k > STACK_DRAWS:
            return None
    edges = np.array(sorted(edges))
    # -1.0 lies below every breakpoint: the interval below the first edge
    steps = np.array([[bisect_right(row, x) for row in rows] for x in [-1.0, *edges.tolist()]], dtype=np.int32)
    size = 2 ** ((len(edges) + 1).bit_length() + 3)
    # scaling by a power of two is exact: cell c holds the draws in [c / size, (c + 1) / size)
    lut = np.searchsorted(edges, np.arange(size) / size, side="right").astype(np.int32)
    scaled = edges * size
    lut[scaled[scaled != np.floor(scaled)].astype(np.intp)] = -1
    return edges, lut, steps, steps.ravel().tolist()


def tables(start, transition, noise_probs) -> dict:
    """A spec's sampling tables, by the name under which the spec holds each: ``_start_cdf``, the
    cumulative law ``start`` of its first draw as a tuple (None without one: the m_dependent kind
    draws integer seeds); a chain's cumulative rows ``_row_cdfs`` and step table ``_steps``, None
    without a ``transition``; and the noise law's cumulative table ``_noise_cdf``.

    ``bisect_right`` on a tuple of Python floats is ``searchsorted(side="right")`` on the same float64
    row, so a walk by bisection skips zero-mass states as a walk through the step table does, and
    ``inverse_cdf`` pins every total to 1.0.
    """
    rows = None if transition is None else tuple(map(tuple, inverse_cdf(transition).tolist()))
    return {"_start_cdf": None if start is None else tuple(inverse_cdf(start).tolist()), "_row_cdfs": rows,
            "_steps": None if rows is None else _step_table(rows), "_noise_cdf": inverse_cdf(noise_probs)}


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
    steps whose table of I**d * k * d cells stays within ``STACK_DRAWS``, and at
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
    while d < n - 1 and intervals ** (d + 1) * k * (d + 1) <= STACK_DRAWS:
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
    edges, lut, steps, _ = spec._steps
    intervals, k = steps.shape
    paths, n = U.shape
    start = _invert(spec._start_cdf, U[:, 0])
    if n == 1:
        return start[:, None]
    d = visits.shape[1]
    chunks = -(-(n - 1) // d)
    L = math.isqrt(chunks)
    B = -(-chunks // L)
    # int32 halves the per-draw arrays: a code times k stays below STACK_DRAWS
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


def _paths(spec: GeneratorSpec, draws: np.ndarray, visits: np.ndarray | None) -> np.ndarray:
    """Indices into ``spec.states()`` of the paths that the rows of ``draws`` (``_stack_draws``) drive.

    A Markov stack is walked at once when ``visits`` (``_chunk_table``) is given, and
    path by path otherwise, the random map evaluated only at the current state: through
    the step table where the chain has one, the draws after the first coded by their
    intervals in one search over the stack, each step then one lookup ``flat[code * k + s]``;
    by bisection of the current state's cumulative row where it has none.  The
    m_dependent window sums are integers, so one cumulative sum over the stack takes
    them exactly.
    """
    if spec.kind == "markov":
        if visits is not None:
            return _walk_stack(spec, visits, draws)
        start = spec._start_cdf
        if spec._steps is not None:
            edges, _, steps, flat = spec._steps
            # the method: np.searchsorted's wrapper leaves objects behind (see _interval_codes)
            codes = edges.searchsorted(draws[:, 1:], side="right")
            codes *= steps.shape[1]  # each interval times k, so that a step adds its state
            paths = []
            for u, row in zip(draws[:, 0].tolist(), codes.tolist()):
                path = [s := bisect_right(start, u)]
                path += [s := flat[code + s] for code in row]
                paths.append(path)
            return np.array(paths, dtype=np.intp)
        # each path's states written over its draws, each draw read once before its state takes its place
        rows, paths = spec._row_cdfs, draws.tolist()
        for path in paths:
            s = path[0] = bisect_right(start, path[0])
            for i in range(1, len(path)):
                s = path[i] = bisect_right(rows[s], path[i])
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


def _stack_draws(spec: GeneratorSpec, n: int, reps: range, noise: bool = False) -> tuple:
    """(draws, noise) of the streams of ``reps``: one row of ``_path_width`` first draws each, and
    when ``noise`` is true n noise uniforms for each row after them (else None).

    Each row's stream ``_stream(spec.seed, rep)`` is read once, as raw 64-bit words into one
    array of the stack: the words of its states' draws (n uniforms, or ceil(w/2) words for w
    window seeds), then, when ``noise`` is true, n words for its noise.  The stack is then
    mapped at once, by ``_window_seeds`` and ``_uniforms``.  A row holding a half that
    Lemire's map rejects is read again as numpy reads it, by the same map: each rejected half
    is skipped, and the noise starts at the word after the last half used.  Uniform states,
    and their noise, are read into the stack's own memory: both are views of it.
    """
    seeds = spec.kind == "m_dependent"
    width = _path_width(spec, n)
    first = -(-width // 2) if seeds else n
    words = np.empty((len(reps), first + n * noise), dtype=np.uint64)
    for row, rep in enumerate(reps):
        words[row] = _stream(spec.seed, rep).random_raw(words.shape[1])
    if not seeds:
        # on one axis numpy converts the stack's own memory where it lies
        uniforms = words.view(float)
        _uniforms(words.ravel(), uniforms.ravel())
        return (uniforms[:, :n], uniforms[:, n:]) if noise else (uniforms, None)
    size, draws = spec.alphabet_size, np.empty((len(reps), width), dtype=np.int64)
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
    if not noise:
        return draws, None
    uniforms = np.empty((len(reps), n))
    _uniforms(words[:, first:], uniforms)
    return draws, uniforms


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


def draw(spec: GeneratorSpec, n: int, replications: range, cells: int, responses: bool):
    """Stacks ``(reps, index, ys)`` of paths of length n, one row per replication of ``replications``,
    each from its own stream: the one way to draw.

    The replications are cut in order into stacks ``reps`` of the most replications, one at least,
    whose arrays of ``cells`` cells or of one path's draws (``_path_width``) each hold at most
    ``STACK_DRAWS`` cells.  ``index`` holds the indices into ``spec.states()`` of a stack's paths
    (``_paths``), and ``ys`` their responses when ``responses`` is true, else None: each row then
    takes n noise uniforms after its states' draws (``_stack_draws``), mapped by one ``_invert`` and
    added to phi.  A one-point noise law draws nothing: every draw would map to its value, and no
    later draw reads the stream, so the responses are read from phi plus that value.  The spec
    checked every phi + noise sum that a draw can return when it was built, so no response is checked
    here, and none overflows.  A Markov draw of more than one replication is walked stack by stack
    through one ``_chunk_table`` where the chain has one; a lone path walks alone.  No array of a
    stack outlives it here, so a caller that drops its own references to a stack before taking the
    next holds one stack at a time.
    """
    size = max(1, STACK_DRAWS // max(cells, _path_width(spec, n)))
    # stop - start, not len(): a range of 2**63 replications has no len
    visits = _chunk_table(spec, n) if replications.stop - replications.start > 1 else None
    for first in range(replications.start, replications.stop, size):
        reps = range(first, min(first + size, replications.stop))
        draws, noise = _stack_draws(spec, n, reps, responses and spec._point_responses is None)
        index = _paths(spec, draws, visits)
        ys = None
        if responses:
            ys = spec._point_responses.take(index) if noise is None else (
                spec.phi.take(index) + spec._noise_values.take(_invert(spec._noise_cdf, noise)))
        del draws, noise
        yield reps, index, ys
        del index, ys
