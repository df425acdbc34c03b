"""Samplers for regular digraph distributions.

Four sampler kinds, and an exhaustive generator of tiny classes:

* ``rejection``: stub matching (a fiber of d out-points per row, dp
  in-points per column, matched by a uniform permutation and collapsed),
  accepted iff the collapse is simple.  The matching is drawn row by row
  by Fisher-Yates steps, and an attempt stops at the first row that
  repeats a column, so a rejection costs only the rows up to it (about
  13 of 60 at n=60, d=4).  Conditioned on simplicity the output is
  exactly uniform on the biregular class.  Acceptance decays like
  exp(-(d-1)(dp-1)/2), so the kernel draws the complement class where its
  (n-d-1)(m-dp-1) is smaller and complements each draw back; a budget
  guard signals when to fall back to the switch chain.
* ``switch_mcmc``: start from a deterministic circulant matrix and apply
  uniformly random simple switchings; stays inside the class at every
  step, approximately uniform after enough steps.
* ``permutation_model``: sum of d iid uniform permutation matrices (a
  d-regular directed multigraph).
* ``erdos_renyi``: iid Bernoulli(p) entries, the comparison baseline.
* ``enumerate_all``: exhaustive generation of tiny classes, the exact
  oracle for distribution tests.

``_KINDS`` is the one place that holds each kind's facts: its packed
kernel, the spec fields it reads and requires, and its objects.

There are two ways to draw: ``draw(spec, count)`` returns one array and
the attempts made, and ``sample_many(spec, count)`` returns objects.  Both
read the spec's stream through the same kernel, so a single draw is
``sample_many(spec, 1)[0]``.

Randomness comes from counter-based Philox streams keyed by
(seed, stream), so distinct stream indices give independent reproducible
streams with no coordination.  Identical (spec, count) always reproduces
the same output sequence bit for bit.

Class and Bernoulli draws travel as packed (count, m, L) uint64 row words
(the layout of ``matrices.rows_to_words``).  Dense (count, m, n) uint8
arrays appear only in the ``*_dense`` views.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .matrices import (
    BiregularBitMatrix,
    InvalidMatrixError,
    _bits,
    dense_to_words,
    rows_to_words,
    words_to_dense,
    words_to_rows,
)

__all__ = [
    "SamplerSpec",
    "ResourceGuardError",
    "RejectionBudgetExhausted",
    "SearchSpaceTooLarge",
    "stream_generator",
    "circulant",
    "sample_many",
    "draw",
    "SAMPLER_KINDS",
    "CLASS_KINDS",
    "rejection_side",
    "rejection_words",
    "rejection_dense",
    "switch_mcmc_words",
    "switch_mcmc_dense",
    "permutation_batch",
    "er_words",
    "enumerate_all",
    "enumeration_size_bound",
]

DEFAULT_MAX_ATTEMPTS = 10**6
DEFAULT_ENUMERATION_CAP = 10**8


class ResourceGuardError(RuntimeError):
    """A deliberate feasibility guard tripped (budget or search-space cap)."""


class RejectionBudgetExhausted(ResourceGuardError):
    """No simple collapse found within max_attempts; use switch_mcmc."""

    def __init__(self, attempts: int):
        super().__init__(f"rejection sampler found no simple graph in {attempts} attempts")
        self.attempts = attempts


class SearchSpaceTooLarge(ResourceGuardError):
    """Exhaustive enumeration guard tripped."""


class Above(float):
    """An open lower end for check_ranges: the value must exceed it."""


def check_ranges(owner: str, *rows) -> None:
    """Raise ValueError naming the first row whose value is out of range.

    A row is (name, value, low) or (name, value, low, high).  A None value
    is skipped.  Any other must be finite and at least `low` (above it for
    an Above low), and at most `high` when one is given.  The message reads
    "<owner> field 'name' must be ..., got value".
    """
    for name, value, low, *high in rows:
        if value is None:
            continue
        strict = isinstance(low, Above)
        finite = isinstance(value, int) or math.isfinite(value)
        if finite and (low < value if strict else low <= value) and all(value <= h for h in high):
            continue
        if high:
            want = f"in {'(' if strict else '['}{low:g}, {high[0]}]"
        else:
            want = f"{'' if finite else 'finite and '}{'>' if strict else '>='} {low:g}"
        raise ValueError(f"{owner} field {name!r} must be {want}, got {value}")


def check_reads(owner: str, spec, reads, by: str, requires=()) -> None:
    """Raise ValueError on the first optional field (default None) of the
    dataclass `spec` set but not in `reads` ("<owner> field 'x' is not read by
    <by>"), then on the first of `requires` left None ("... is required by <by>")."""
    for f in fields(spec):
        if f.default is None and f.name not in reads and getattr(spec, f.name) is not None:
            raise ValueError(f"{owner} field {f.name!r} is not read by {by}")
    for name in requires:
        if getattr(spec, name) is None:
            raise ValueError(f"{owner} field {name!r} is required by {by}")


@contextmanager
def fields_named(names: dict):
    """Within the block, a "<owner> field 'x' ..." ValueError (out of
    range, not read, required) whose "<owner> field 'x'" is a key of `names`
    is raised again under its value, so a caller can name the field its
    user typed."""
    try:
        yield
    except ValueError as exc:
        old = next((old for old in names if str(exc).startswith(f"{old} ")), None)
        if old is None:
            raise
        raise ValueError(names[old] + str(exc)[len(old):]) from None


@dataclass(frozen=True)
class SamplerSpec:
    """Fully-resolved sampler configuration.

    (seed, stream) pairs key independent reproducible Philox streams;
    identical specs produce bit-identical output sequences.
    """

    kind: str
    n: int = 0
    d: Optional[int] = None
    m: Optional[int] = None
    dp: Optional[int] = None
    p: Optional[float] = None
    steps: Optional[int] = None
    max_attempts: Optional[int] = None
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        check_reads("sampler", self, row.reads, f"kind {self.kind!r}", row.requires)
        for name, default in (("m", self.n), ("dp", self.d), ("max_attempts", DEFAULT_MAX_ATTEMPTS)):
            if name in row.reads and getattr(self, name) is None:
                object.__setattr__(self, name, default)
        m, dp = self.m, self.dp
        check_ranges("sampler", ("n", self.n, 1), ("m", m, 1), ("d", self.d, 0, self.n), ("dp", dp, 0, m),
                     ("p", self.p, 0, 1), ("max_attempts", self.max_attempts, 1), ("steps", self.steps, 0))
        if m is not None and m * self.d != self.n * dp:
            raise ValueError(f"edge-count mismatch: m*d = {m * self.d} != n*dp = {self.n * dp}")
        if self.kind == "permutation_model" and m != self.n:
            raise ValueError(f"sampler field 'm' must equal n = {self.n} for kind 'permutation_model', got {m}")

    @property
    def resolved_steps(self) -> int:
        if self.steps is not None:
            return self.steps
        return 100 * self.n * self.d

    def rng(self) -> np.random.Generator:
        return stream_generator(self.seed, self.stream)


def stream_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for worker stream `stream` of seed `seed`."""
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# -- deterministic start state ----------------------------------------------------


def circulant(n: int, d: int, m: Optional[int] = None) -> BiregularBitMatrix:
    """Deterministic member of the class, valid for all 0 <= d <= n.

    Square case: row i has ones in columns i, i+1, ..., i+d-1 (mod n).
    Biregular case: row i covers the block i*d, ..., i*d+d-1 (mod n); the
    blocks tile Z_n so every column is hit exactly m*d/n times.
    """
    return BiregularBitMatrix(_circulant_rows(n, d, n if m is None else m), n)


def _circulant_rows(n: int, d: int, m: int) -> list:
    """The packed rows of circulant(n, d, m), not validated."""
    block, full = (1 << d) - 1, (1 << n) - 1
    rows = []
    for i in range(m):
        # The d-bit block shifted to its start, its bits past n wrapped round.
        shifted = block << ((i if m == n else i * d) % n)
        rows.append((shifted | shifted >> n) & full)
    return rows


# -- packed row words ----------------------------------------------------------------

# _WORD_BITS[j % 64] is the bit of column j within its word.
_WORD_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)


def _members(spec: SamplerSpec, words: np.ndarray) -> list:
    """Class draws as matrices, after one margin check of the whole batch:
    every row holds d set bits and every column dp.  The row counts include
    the pad bits past column n, so with m*d = n*dp no pad bit can be set."""
    n = spec.n
    bits = words_to_dense(words, 64 * words.shape[-1])  # pad bits included
    if (bits.sum(axis=2) != spec.d).any() or (bits[..., :n].sum(axis=1) != spec.dp).any():
        raise InvalidMatrixError(f"a {spec.kind} draw has margins other than d={spec.d}, dp={spec.dp}")
    return [BiregularBitMatrix(rows, n, _trusted=True) for rows in words_to_rows(words)]


# -- rejection (configuration model) -----------------------------------------------


# In-stub labels held by the first block of attempts and by the largest;
# each block holds twice the attempts of the one before, up to the largest.
_REJECTION_FIRST_ENTRIES = 1 << 12
_REJECTION_POOL_ENTRIES = 1 << 21


def rejection_side(n: int, d: int, m: int, dp: int) -> Tuple[str, int]:
    """(side, k): the side of the m x n class with row degree d and column
    degree dp that rejection_words draws, "class" or "complement" (row
    degree n - d, column degree m - dp), and that side's k = (d-1)(dp-1).
    A simple collapse has probability near exp(-k/2) (McKay 1984), so the
    side with the smaller k is drawn; a tie draws the class."""
    k, k_complement = (d - 1) * (dp - 1), (n - d - 1) * (m - dp - 1)
    return ("complement", k_complement) if k_complement < k else ("class", k)


def rejection_words(spec: SamplerSpec, count: int) -> Tuple[np.ndarray, int]:
    """(words, attempts): `count` exactly-uniform class members as (count, m, L)
    row words, and the number of attempts up to and including the last one
    whose sample is kept.

    Each attempt lays the m*d in-stub column labels in a pool and fills the
    out-stubs t = i*d + k row by row with a forward Fisher-Yates step, swap
    t with a uniform j in [t, m*d).  An attempt is dropped once a row
    repeats a column, and one that completes every row is a uniform stub
    matching conditioned on a simple collapse.  Attempts run in blocks whose
    sizes depend on the spec alone, and the samples are the first accepted
    attempts in attempt order.

    Where rejection_side picks the complement class, its draws are made
    from the spec's own stream and each row is complemented: a bijection
    onto the class, so the samples stay exactly uniform, and the attempts
    counted are those on the complement.
    """
    if spec.kind != "rejection":
        raise ValueError("spec.kind must be 'rejection'")
    m, n, d, dp = spec.m, spec.n, spec.d, spec.dp
    if rejection_side(n, d, m, dp)[0] == "complement":
        out, attempts = rejection_words(replace(spec, d=n - d, dp=m - dp), count)
        out ^= rows_to_words([(1 << n) - 1], n)  # every row's n bits, no pad bit
        return out, attempts
    width = (n + 63) // 64
    out = np.zeros((count, m, width), dtype=np.uint64)
    if d == 0 or d == n:
        # Degenerate class with a single element; nothing to sample.
        out[:] = rows_to_words([(1 << n) - 1 if d else 0] * m, n)
        return out, count
    rng = spec.rng()
    md = m * d
    largest = max(1, min(spec.max_attempts, _REJECTION_POOL_ENTRIES // md))
    block = max(1, min(largest, _REJECTION_FIRST_ENTRIES // md))
    labels = np.repeat(np.arange(n, dtype=np.uint8 if n <= 256 else np.int32), dp)
    pool = np.empty((largest, md), dtype=labels.dtype)
    flat = pool.reshape(-1)
    accepted = 0
    attempts = 0
    failures_since_last = 0
    while accepted < count:
        pool[:block] = labels
        # Offset of each live attempt's stubs in `flat`, in attempt order.
        base = np.arange(0, block * md, md, dtype=np.int64)
        for i in range(m):
            cols = []
            for t in range(i * d, (i + 1) * d):
                at = flat[t:]  # at[base] is position t of each live attempt
                pos_j = rng.integers(t, md, size=base.size)
                pos_j += base
                at_j = flat[pos_j]
                flat[pos_j] = at[base]
                at[base] = at_j
                cols.append(at_j)
            simple = np.ones(base.size, dtype=bool)
            for a in range(d):
                for b in range(a):
                    simple &= cols[a] != cols[b]
            base = base[simple]
            if base.size == 0:
                break
        if base.size == 0:
            attempts += block
            failures_since_last += block
            if failures_since_last >= spec.max_attempts:
                raise RejectionBudgetExhausted(failures_since_last)
        else:
            live = base // md
            failures_since_last = int(block - 1 - live[-1])
            take = live[: count - accepted]
            cols = pool[take].reshape(take.size, m, d)
            # A row's d columns are distinct, so the sum of their bits is their OR.
            bits = _WORD_BITS[cols % 64]
            for w in range(width):
                out[accepted : accepted + take.size, :, w] = np.where(cols // 64 == w, bits, 0).sum(axis=-1)
            del cols, bits  # not held through the next block's first, widest row
            accepted += take.size
            attempts += int(take[-1]) + 1 if accepted == count else block
        block = min(2 * block, largest)
    return out, attempts


def rejection_dense(spec: SamplerSpec, count: int) -> np.ndarray:
    """rejection_words' samples as a (count, m, n) uint8 array."""
    return words_to_dense(rejection_words(spec, count)[0], spec.n)


# -- switch chain --------------------------------------------------------------------

_SITE_BLOCK = 1 << 14  # site draws per block, whatever the chain count


def _site_blocks(rng: np.random.Generator, m: int, n: int, steps: int, count: int) -> Iterator[np.ndarray]:
    """The chains' proposals as (block, count) integer site codes.

    A code s in [0, m*m*n*n) names the 2x2 minor
    s = ((i1*m + i2)*n + j1)*n + j2, so one exact uniform draw replaces four
    bounded ones.  The blocks are consecutive rows of one row-major run of
    steps x count bounded draws, so block size does not enter the stream:
    blocks of about _SITE_BLOCK codes only bound the memory a block holds.
    """
    per_block = max(1, _SITE_BLOCK // max(count, 1))
    high = m * m * n * n
    # 32-bit codes, when they fit, halve a block's memory and its decoding.
    dtype = np.uint32 if high < 1 << 32 else np.int64
    for start in range(0, steps, per_block):
        yield rng.integers(0, high, size=(min(per_block, steps - start), count), dtype=dtype)


def _split_sites(sites: np.ndarray, m: int, n: int):
    """(i1, i2, j1, j2) arrays of the codes in `sites`."""
    rows = sites // (n * n)
    cols = sites - rows * (n * n)
    i1 = rows // m
    j1 = cols // n
    return i1, rows - i1 * m, j1, cols - j1 * n


def _switch_rows(rows: list, m: int, n: int, codes: np.ndarray) -> None:
    """Apply the proposals `codes` in turn, in place, to one chain of packed row ints."""
    bit = [1 << j for j in range(n)]
    for i1, i2, j1, j2 in zip(*(a.tolist() for a in _split_sites(codes, m, n))):
        mask = bit[j1] | bit[j2]
        x = rows[i1] & mask
        # Switchable iff the minor is an I or a J: row i1 holds exactly one of
        # the two columns and row i2 exactly the other, so row i2 is read only
        # when row i1 qualifies.  A repeated index never qualifies.
        if x and x != mask and (rows[i2] & mask) == x ^ mask:
            rows[i1] ^= mask
            rows[i2] ^= mask


class _OneWordSites:
    """Site blocks of chains of one-word rows, decoded into arrays that are
    reused from block to block.

    A code s = (i1*m + i2)*n*n + c, c = j1*n + j2, of chain k becomes the
    flat row indices k*m + i1 and k*m + i2 and the column mask
    bit j1 | bit j2, looked up at c in an n x n table (at most 4,096 words).
    Quotients go through floor_divide in the codes' own dtype; NumPy's
    divmod and remainder by a scalar take several times as long.
    """

    def __init__(self, m: int, n: int):
        self.m, self.nn = m, n * n
        self.table = (_WORD_BITS[:n, None] | _WORD_BITS[None, :n]).reshape(-1)
        self.pairs = None

    def decode(self, sites: np.ndarray):
        """(r1, r2, masks) of the (steps, count) block `sites`; views that
        the next call overwrites."""
        steps, count = sites.shape
        if self.pairs is None or steps > self.pairs.shape[0]:
            self.pairs, self.parts = np.empty_like(sites), np.empty_like(sites)
            self.r1, self.r2 = (np.empty(sites.shape, dtype=np.int64) for _ in range(2))
            self.masks = np.empty(sites.shape, dtype=np.uint64)
            # k*m in column k, as a full array: adding a broadcast row would
            # make NumPy copy the other operand whole.
            chain_rows = np.arange(0, count * self.m, self.m, dtype=np.int64)
            self.offsets = np.repeat(chain_rows[None], steps, axis=0)
        pairs, parts, offsets = self.pairs[:steps], self.parts[:steps], self.offsets[:steps]
        r1, r2, masks = self.r1[:steps], self.r2[:steps], self.masks[:steps]
        np.floor_divide(sites, self.nn, out=pairs)  # i1*m + i2
        np.multiply(pairs, self.nn, out=parts)
        np.subtract(sites, parts, out=r1)  # j1*n + j2, as intp for take
        # mode="clip" writes straight into `masks`; "raise" would buffer it.
        self.table.take(r1, out=masks, mode="clip")
        np.floor_divide(pairs, self.m, out=parts)  # i1
        np.add(offsets, parts, out=r1)
        np.multiply(parts, self.m, out=parts)
        np.subtract(pairs, parts, out=parts)  # i2
        np.add(offsets, parts, out=r2)
        return r1, r2, masks


def _switch_words(
    words: np.ndarray, m: int, n: int, sites: np.ndarray, decoder: Optional[_OneWordSites] = None
) -> None:
    """Apply the proposals sites[t, k] in place to chain k of `words`.

    `words` is a C-contiguous (count, m, L) uint64 array holding bit j of
    row i in word j // 64 at position j % 64.  Each step makes the test of
    _switch_rows for every chain at once and writes back only the chains
    that switch.  One-word rows decode the block with `decoder`, made here
    when none is passed.
    """
    count, _, width = words.shape
    flat = words.reshape(-1)
    if width == 1:
        r1, r2, masks = (decoder or _OneWordSites(m, n)).decode(sites)
        for t in range(sites.shape[0]):
            p1, p2, mask = r1[t], r2[t], masks[t]
            a = flat.take(p1)
            b = flat.take(p2)
            x = a & mask
            y = b & mask
            hit = ((x ^ y == mask) & (np.minimum(x, y) != 0)).nonzero()[0]
            flips = mask[hit]
            flat.put(p1[hit], a[hit] ^ flips)
            flat.put(p2[hit], b[hit] ^ flips)
        return
    # Wide rows: one word per entry of the minor, flipped one entry at a time
    # so that two entries sharing a word both flip.
    i1, i2, j1, j2 = _split_sites(sites, m, n)
    chain_rows = np.arange(count, dtype=np.int64) * m
    base1 = (chain_rows + i1) * width
    base2 = (chain_rows + i2) * width
    w1, w2 = j1 // 64, j2 // 64
    one = np.uint64(1)
    bits1, bits2 = one << (j1 % 64).astype(np.uint64), one << (j2 % 64).astype(np.uint64)
    for t in range(sites.shape[0]):
        entries = (base1[t] + w1[t], base1[t] + w2[t], base2[t] + w1[t], base2[t] + w2[t])
        b1, b2 = bits1[t], bits2[t]
        x11, x12, x21, x22 = (
            flat.take(p) & b != 0 for p, b in zip(entries, (b1, b2, b1, b2))
        )
        hit = np.flatnonzero((x11 != x12) & (x11 == x22) & (x12 == x21))
        for p, b in zip(entries, (b1, b2, b1, b2)):
            flat[p[hit]] ^= b[hit]


def switch_mcmc_words(spec: SamplerSpec, count: int) -> np.ndarray:
    """`count` independent switch chains, each run for spec.resolved_steps steps.

    Chains start at the circulant matrix and apply uniformly random simple
    switchings (no-op when the sampled 2x2 minor is not switchable), so
    every state is a class member.  Returns (count, m, L) uint64 row words.

    Each step of chain k reads one site code from column k of the blocks
    drawn by _site_blocks; block size does not enter the stream.  Many
    chains step together as packed uint64 row words, and on one-word rows
    (n <= 64) every block is decoded into the same arrays by table lookup
    (_OneWordSites).  A lone chain steps in a Python loop over row ints,
    which is faster for one chain and gives the same state for the same
    sites.
    """
    if spec.kind != "switch_mcmc":
        raise ValueError("spec.kind must be 'switch_mcmc'")
    m, n = spec.m, spec.n
    # The spec has checked the class, so the circulant start needs no check.
    start = _circulant_rows(n, spec.d, m)
    blocks = _site_blocks(spec.rng(), m, n, spec.resolved_steps, count)
    if count == 1:
        rows = start
        for sites in blocks:
            _switch_rows(rows, m, n, sites[:, 0])
        return rows_to_words(rows, n)[None]
    start_words = rows_to_words(start, n)
    words = np.broadcast_to(start_words, (count, *start_words.shape)).copy()
    decoder = _OneWordSites(m, n) if words.shape[2] == 1 else None
    for sites in blocks:
        _switch_words(words, m, n, sites, decoder)
    return words


def switch_mcmc_dense(spec: SamplerSpec, count: int) -> np.ndarray:
    """switch_mcmc_words as a (count, m, n) uint8 array."""
    return words_to_dense(switch_mcmc_words(spec, count), spec.n)


# -- permutation model ---------------------------------------------------------------


def permutation_batch(spec: SamplerSpec, count: int) -> np.ndarray:
    """(count, d, n) array of iid uniform permutations, in the narrowest of
    uint8, uint16 and int32 that holds the labels; `Generator.permuted`
    gives the same permutations whatever the dtype."""
    if spec.kind != "permutation_model":
        raise ValueError("spec.kind must be 'permutation_model'")
    n, d = spec.n, spec.d
    dtype = np.uint8 if n <= 1 << 8 else np.uint16 if n <= 1 << 16 else np.int32
    perms = np.tile(np.arange(n, dtype=dtype), (count * d, 1))
    spec.rng().permuted(perms, axis=1, out=perms)
    return perms.reshape(count, d, n)


# -- Erdos-Renyi digraph --------------------------------------------------------------


_ER_BLOCK_ENTRIES = 1 << 18  # uniforms drawn per step of er_words


def er_words(spec: SamplerSpec, count: int) -> np.ndarray:
    """(count, n, L) row words of iid Bernoulli(p) entries."""
    if spec.kind != "erdos_renyi":
        raise ValueError("spec.kind must be 'erdos_renyi'")
    rng = spec.rng()
    n = spec.n
    out = np.empty((count, n, (n + 63) // 64), dtype=np.uint64)
    # A few samples at a time: the same stream as one draw of (count, n, n)
    # uniforms, without holding them all.
    step = max(1, _ER_BLOCK_ENTRIES // (n * n))
    for start in range(0, count, step):
        out[start : start + step] = dense_to_words(rng.random((min(step, count - start), n, n)) < spec.p)
    return out


# -- exhaustive enumeration ------------------------------------------------------------


def enumeration_size_bound(m: int, n: int, d: int) -> int:
    """Crude upper bound on the backtracking search space."""
    return math.comb(n, d) ** m


def enumerate_all(
    m: int,
    n: int,
    d: int,
    dp: Optional[int] = None,
    max_states: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[BiregularBitMatrix]:
    """Every class member exactly once, ascending packed-row order.

    Rows are packed with bit j = column j; rows are emitted depth-first
    with each row's candidate masks in ascending integer order.  Guarded
    by a search-space cap (raises SearchSpaceTooLarge).
    """
    check_ranges("enumeration", ("n", n, 1), ("m", m, 1), ("d", d, 0, n), ("dp", dp, 0, m),
                 ("max_states", max_states, 1))
    dp = d * m // n if dp is None else dp
    if m * d != n * dp:
        raise ValueError(f"edge-count mismatch: m*d = {m * d} != n*dp = {n * dp}")
    if enumeration_size_bound(m, n, d) > max_states:
        raise SearchSpaceTooLarge(
            f"C({n},{d})^{m} = {enumeration_size_bound(m, n, d)} exceeds cap {max_states}"
        )
    # Each candidate row with its columns, in ascending mask order.
    candidates = [
        (mask, _bits(mask))
        for mask in sorted(sum(1 << j for j in combo) for combo in itertools.combinations(range(n), d))
    ]
    rem = [dp] * n
    rows: list = []

    def feasible(rows_left: int) -> bool:
        full = 0
        for r in rem:
            if r > rows_left:
                return False
            if r == rows_left:
                full += 1
        return full <= d or rows_left == 0

    def rec() -> Iterator[BiregularBitMatrix]:
        i = len(rows)
        if i == m:
            yield BiregularBitMatrix(list(rows), n, _trusted=True)
            return
        rows_left = m - i - 1
        for mask, cols in candidates:
            if not all(rem[j] for j in cols):
                continue
            for j in cols:
                rem[j] -= 1
            if feasible(rows_left):
                rows.append(mask)
                yield from rec()
                rows.pop()
            for j in cols:
                rem[j] += 1

    return rec()


# -- the two front doors ----------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """A sampler kind: kernel(spec, count) -> (samples, attempts), the spec
    fields it reads besides kind, n, seed and stream, the optional ones it
    requires, and objects(spec, samples) -> list.
    A kernel looks its function up by module-level name when called, so a
    wrapper installed on that name sees every draw."""

    kernel: Callable
    reads: Tuple[str, ...]
    requires: Tuple[str, ...]
    objects: Callable


_KINDS = {
    "rejection": _Kind(lambda spec, count: rejection_words(spec, count), ("d", "m", "dp", "max_attempts"), ("d",),
                       _members),
    "switch_mcmc": _Kind(lambda spec, count: (switch_mcmc_words(spec, count), count), ("d", "m", "dp", "steps"), ("d",),
                         _members),
    "permutation_model": _Kind(lambda spec, count: (permutation_batch(spec, count), count), ("d", "m", "dp"), ("d",),
                               lambda spec, batch: list(batch)),
    "erdos_renyi": _Kind(lambda spec, count: (er_words(spec, count), count), ("p",), ("p",),
                         lambda spec, batch: list(words_to_dense(batch, spec.n))),
}
SAMPLER_KINDS = tuple(_KINDS)
CLASS_KINDS = tuple(kind for kind, row in _KINDS.items() if row.objects is _members)


def draw(spec: SamplerSpec, count: int) -> Tuple[np.ndarray, int]:
    """`count` samples of the spec's kind as one array, and the attempts made.

    The array is (count, m, L) uint64 row words for the class kinds and the
    Bernoulli digraph, and (count, d, n) permutations for the permutation
    model.
    """
    check_ranges("draw", ("count", count, 0))
    return _KINDS[spec.kind].kernel(spec, count)


def sample_many(spec: SamplerSpec, count: int) -> list:
    """`count` samples of the spec's kind as objects: class members as
    BiregularBitMatrix, permutation draws as (d, n) arrays (row k is the
    k-th permutation) and Bernoulli draws as (n, n) uint8 arrays.

    The objects are those of draw(spec, count), so identical (spec, count)
    reproduces them bit for bit.
    """
    batch, _ = draw(spec, count)
    return _KINDS[spec.kind].objects(spec, batch)
