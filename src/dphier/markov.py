"""Private prediction suffix trees for sequence data.

A prediction suffix tree (PST) node holds a predictor string (the suffix
context, extended leftward as the tree deepens) and a next-symbol histogram
over the alphabet plus the end marker.  A :class:`Pst` stores its nodes as
columns; a :class:`PstNode` is a value made on request.  The private build
runs the bias-decayed split engine :func:`dphier.dp_core.grow_levels` with
the score

    score(v) = ||hist(v)||_1 - max(hist(v))

which is monotone along the tree and changes by at most ``l_max`` when one
length-capped sequence is inserted, so the split noise scale carries a
sensitivity factor of ``l_max``.

Reserved tokens: ``$`` starts every sequence, ``&`` ends every non-truncated
one; neither may appear in the alphabet.  Internally symbols map to dense ids
with START=0 and END=1.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from json.encoder import encode_basestring_ascii

import numpy as np

from .dp_core import DEFAULT_DEPTH_CAP, PrivacyParams, biased_split, check_tree_links, float_texts
from .dp_core import grow_levels, json_value, privtree_params, read_json, sample_laplace
from .errors import GenerationError, InputDataError, ParameterError

__all__ = [
    "Alphabet",
    "END_ID",
    "END_TOKEN",
    "Pst",
    "PstNode",
    "START_ID",
    "START_TOKEN",
    "SequenceDataset",
    "build_private_pst",
    "estimate_string_count",
    "generate_sequences",
    "load_pst",
    "load_sequences",
    "longest_suffix_node",
    "pst_from_json_dict",
    "pst_score",
    "top_k_strings",
    "truncate_sequences",
]

START_TOKEN = "$"
END_TOKEN = "&"
START_ID = 0
END_ID = 1


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set; ids are dense with START=0, END=1, symbols from 2."""

    symbols: tuple

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if not symbols:
            raise ParameterError("alphabet must contain at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ParameterError("alphabet symbols must be distinct")
        if START_TOKEN in symbols or END_TOKEN in symbols:
            raise ParameterError(
                f"{START_TOKEN!r} and {END_TOKEN!r} are reserved tokens"
            )
        object.__setattr__(
            self, "_ids", {s: i + 2 for i, s in enumerate(symbols)}
        )

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def fanout(self) -> int:
        """Children per split: one per symbol plus the start marker."""
        return len(self.symbols) + 1

    def id_of(self, token: str) -> int:
        if token == START_TOKEN:
            return START_ID
        if token == END_TOKEN:
            return END_ID
        try:
            return self._ids[token]
        except KeyError:
            raise InputDataError(f"unknown symbol {token!r}") from None

    def token_of(self, sym_id: int) -> str:
        if sym_id == START_ID:
            return START_TOKEN
        if sym_id == END_ID:
            return END_TOKEN
        idx = sym_id - 2
        if not 0 <= idx < len(self.symbols):
            raise InputDataError(f"unknown symbol id {sym_id}")
        return self.symbols[idx]

    @property
    def symbol_ids(self) -> tuple:
        """Ids of the plain symbols (excluding START and END)."""
        return tuple(range(2, len(self.symbols) + 2))


@dataclass(frozen=True)
class SequenceDataset:
    """Length-capped sequences; entries marked open-ended carry no end marker.

    A stored sequence's length, counting the end marker when present (and
    never the start marker), is at most ``l_max``.
    """

    alphabet: Alphabet
    sequences: tuple
    open_ended: tuple
    l_max: int

    def __post_init__(self):
        if not (isinstance(self.l_max, (int, np.integer)) and self.l_max >= 1):
            raise ParameterError(f"l_max must be an integer >= 1, got {self.l_max!r}")
        seqs = tuple(map(tuple, self.sequences))
        opens = tuple(bool(o) for o in self.open_ended)
        if len(seqs) != len(opens):
            raise InputDataError("sequences and open_ended must align")
        valid = set(self.alphabet.symbol_ids)  # ids are Python ints, never bools
        lens = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        closed = ~np.array(opens, dtype=bool)  # the end marker counts
        too_long = lens + closed > self.l_max
        ids = list(itertools.chain.from_iterable(seqs))
        if too_long.any() or {*map(type, ids)} - {int} or not valid.issuperset(ids):
            # the first offending sequence names the error
            for s, long in zip(seqs, too_long):
                if {*map(type, s)} - {int} or not valid.issuperset(s):
                    raise InputDataError("sequence contains ids outside the alphabet")
                if long:
                    raise InputDataError("sequence exceeds the length cap")
        object.__setattr__(self, "sequences", seqs)
        object.__setattr__(self, "open_ended", opens)

    @property
    def n(self) -> int:
        return len(self.sequences)


def truncate_sequences(raw, l_max: int, alphabet: Alphabet | None = None) -> SequenceDataset:
    """Cap every raw sequence at ``l_max`` symbols counting the end marker.

    Sequences of length ``< l_max`` (so length+END <= l_max) keep their end
    marker; longer ones are cut to their first ``l_max`` symbols and become
    open-ended.  ``raw`` holds token lists without sentinels; the alphabet is
    inferred in first-appearance order unless given.

    An inferred alphabet is not private: it lists every token of the data,
    and a token that occurs in one record reveals that record.  Pass a public
    ``alphabet`` for a private release.
    """
    if not (isinstance(l_max, (int, np.integer)) and l_max >= 1):
        raise ParameterError(f"l_max must be an integer >= 1, got {l_max!r}")
    raw = [tuple(map(str, s)) for s in raw]
    if alphabet is None:
        symbols = tuple(dict.fromkeys(itertools.chain.from_iterable(raw)))
        if not symbols:
            raise ParameterError("cannot infer an alphabet from empty input")
        alphabet = Alphabet(symbols)
    code = {START_TOKEN: START_ID, END_TOKEN: END_ID, **alphabet._ids}.__getitem__
    try:
        sequences = tuple(
            ids if len(ids) < l_max else ids[:l_max]
            for ids in (tuple(map(code, s)) for s in raw)
        )
    except KeyError as exc:
        raise InputDataError(f"unknown symbol {exc.args[0]!r}") from None
    return SequenceDataset(
        alphabet=alphabet,
        sequences=sequences,
        open_ended=tuple(len(s) >= l_max for s in raw),
        l_max=int(l_max),
    )


def load_sequences(path):
    """Read newline-delimited records of whitespace-separated tokens.

    '#' comment lines and blank lines are ignored; an empty record is not
    representable in this format.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(line.split())
    return out


def pst_score(hist):
    """Histogram magnitude minus its largest count (0 when empty), along the
    last axis: a float for one histogram, an array for a stack of them."""
    if isinstance(hist, dict):
        counts = np.asarray(list(hist.values()), dtype=np.float64)
    else:
        counts = np.asarray(hist, dtype=np.float64)
    if counts.size == 0:
        return 0.0
    if (counts < 0).any():
        raise ParameterError("histogram counts must be nonnegative")
    out = counts.sum(axis=-1) - counts.max(axis=-1)
    return float(out) if out.ndim == 0 else out


@dataclass
class PstNode:
    """A PST node as a value: predictor ids (deepest-first growth is leftward
    prepend), next-symbol histogram indexed by symbol id (START slot unused,
    always 0), and children keyed by the prepended symbol id."""

    id: int
    predictor: tuple
    children: dict = field(default_factory=dict)
    hist: np.ndarray | None = None

    @property
    def depth(self) -> int:
        return len(self.predictor)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Pst:
    """A released PST, stored as columns indexed by node id: ``preds[i]`` is
    node ``i``'s predictor, ``child[i, s]`` the id of its child that prepends
    symbol id ``s`` (-1 if none) and ``hist[i]`` its next-symbol histogram by
    symbol id (``hist`` is None for a PST without histograms).
    ``Pst(nodes=...)`` converts :class:`PstNode` values once, without checking
    them: node ``i`` is ``nodes[i]`` whatever its ``id``, and unless every
    value has a ``hist`` the PST has none.  ``node(i)`` and ``nodes`` build
    values whose ``hist`` is a row view of the matrix.  ``_reader`` caches the
    context automaton."""

    def __init__(self, alphabet: Alphabet, l_max: int, *, nodes=None, preds=None,
                 child=None, hist=None, params: PrivacyParams | None = None,
                 params_info: dict | None = None, root: int = 0):
        if nodes is not None:
            preds = [v.predictor for v in nodes]
            child = np.full((len(nodes), alphabet.size + 2), -1, dtype=np.int64)
            for i, v in enumerate(nodes):
                child[i, list(v.children)] = list(v.children.values())
            if all(v.hist is not None for v in nodes):
                hist = np.array([v.hist for v in nodes], dtype=np.float64)
        self.preds, self.child, self.hist = preds, child, hist
        self.alphabet, self.l_max = alphabet, l_max
        self.params, self.root = params, root
        self.params_info = {} if params_info is None else params_info
        self._reader: _ContextAutomaton | None = None

    def node(self, nid: int) -> PstNode:
        children = {sym: c for sym, c in enumerate(self.child[nid].tolist()) if c >= 0}
        hist = None if self.hist is None else self.hist[nid]
        return PstNode(nid, self.preds[nid], children, hist)

    @property
    def nodes(self) -> list:
        return [self.node(i) for i in range(len(self.preds))]

    def to_json_dict(self) -> dict:
        """The release document as a dict, read back from :meth:`dumps`."""
        return json.loads(self.dumps())

    def dumps(self) -> str:
        """The release document: ``json.dumps(doc, sort_keys=True)`` of
        ``{"alphabet", "l_max", "params", "nodes": [{"children", "hist"?,
        "id", "predictor"}]}``, written row by row from the columns; it
        defines the format.  Children and histograms are keyed by token, and
        a histogram has no START count."""
        token = (START_TOKEN, END_TOKEN, *self.alphabet.symbols)
        quoted = [encode_basestring_ascii(t) for t in token]
        by_token = sorted(range(len(token)), key=token.__getitem__)  # symbol ids
        n = len(self.preds)
        rows, cols = np.nonzero(self.child[:, by_token] >= 0)
        syms = np.array(by_token, dtype=np.int64)[cols]
        kids = self.child[rows, syms].tolist()
        links = [f"{quoted[s]}: {c}" for s, c in zip(syms.tolist(), kids)]
        first = np.searchsorted(rows, np.arange(n + 1)).tolist()
        slots = np.empty((n, 3 if self.hist is None else len(token) + 2), dtype=object)
        slots[:, 0] = [", ".join(links[a:b]) for a, b in zip(first, first[1:])]
        slots[:, -2] = range(n)
        slots[:, -1] = [", ".join([quoted[t] for t in pred]) for pred in self.preds]
        hist = ""
        if self.hist is not None:
            kept = [sym for sym in by_token if sym != START_ID]
            slots[:, 1:-2] = float_texts(self.hist[:, kept])
            keys = ", ".join(quoted[sym].replace("%", "%%") + ": %s" for sym in kept)
            hist = '"hist": {' + keys + "}, "
        row = '{"children": {%s}, ' + hist + '"id": %s, "predictor": [%s]}'
        nodes = ", ".join([row] * n) % tuple(slots.ravel().tolist())
        params = {k: self.params_info.get(k) for k in ("epsilon", "lambda", "theta", "delta")}
        return (
            f'{{"alphabet": {json.dumps(list(self.alphabet.symbols))}, '
            f'"l_max": {json.dumps(self.l_max)}, "nodes": [{nodes}], '
            f'"params": {json.dumps(params, sort_keys=True)}}}'
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())
            fh.write("\n")


def pst_from_json_dict(doc: dict) -> Pst:
    """A PST from its document, read entry by entry into columns, so the
    first defect in document order, such as a value of the wrong JSON type,
    names the error."""
    try:
        tokens = json_value(doc["alphabet"], list, "alphabet")
        alphabet = Alphabet(tuple(json_value(t, str, "token") for t in tokens))
        l_max = doc["l_max"]
        if type(l_max) is not int or l_max < 1:
            raise ParameterError(f"l_max must be an integer >= 1, got {l_max!r}")
        params_info = json_value(doc["params"], dict, "params")
        raw_nodes = json_value(doc["nodes"], list, "nodes")
        size = len(raw_nodes)
    except (KeyError, TypeError, ParameterError) as exc:
        raise InputDataError(f"malformed PST document: {exc}") from exc
    preds, rows, links = [None] * size, [None] * size, [None] * size
    for k, entry in enumerate(raw_nodes):
        try:
            nid = json_value(entry["id"], int, "id")
            if not 0 <= nid < size or preds[nid] is not None:
                raise InputDataError(f"bad or duplicate node id {nid}")
            if "hist" in entry:
                row = rows[nid] = [0.0] * (alphabet.size + 2)
                for tok, cnt in entry["hist"].items():
                    row[alphabet.id_of(tok)] = json_value(cnt, float, "count")
                    if tok == START_TOKEN:
                        raise InputDataError(f"node {nid}: histogram has a {START_TOKEN!r} count")
                if not all(0.0 <= c < math.inf for c in row):
                    raise InputDataError(f"node {nid}: histogram counts must be finite and >= 0")
            kids = [(nid, alphabet.id_of(tok), json_value(cid, int, "child id"))
                    for tok, cid in entry["children"].items()]
            if any(not 0 <= cid < size for _, _, cid in kids):
                raise InputDataError(f"node {nid} references an unknown child id")
            links[nid] = kids  # (parent, symbol, child)
            predictor = json_value(entry["predictor"], list, "predictor")
            preds[nid] = tuple(map(alphabet.id_of, predictor))
        except InputDataError:
            raise
        except (KeyError, TypeError, OverflowError, AttributeError) as exc:
            raise InputDataError(
                f"node entry {k}: a field is missing or malformed ({type(exc).__name__}: {exc})"
            ) from exc
    bare = [nid for nid, row in enumerate(rows) if row is None]
    if 0 < len(bare) < size:
        raise InputDataError(f"node {bare[0]} has no histogram, but other nodes have one")
    root = next((nid for nid, pred in enumerate(preds) if not pred), None)
    if root is None:
        raise InputDataError("PST document has no empty-predictor root")
    # links in id order of the parent, then in document order
    links = list(itertools.chain.from_iterable(links))
    extends = [preds[c] == (s,) + preds[p] for p, s, c in links]
    parents, syms, kids = np.array(links, dtype=np.int64).reshape(-1, 3).T
    check_tree_links(size, root, parents, kids, extends)
    child = np.full((size, alphabet.size + 2), -1, dtype=np.int64)
    child[parents, syms] = kids
    hist = None if bare else np.array(rows, dtype=np.float64)
    return Pst(alphabet, l_max, preds=preds, child=child, hist=hist,
               params_info=dict(params_info), root=root)


def load_pst(path) -> Pst:
    return pst_from_json_dict(read_json(path))


# ---------------------------------------------------------------------------
# construction
#
# A "position" is (sequence, i): the i-th next-symbol of that sequence
# (1-based; includes the end marker for non-truncated sequences), whose
# context is the first i-1 symbols prefixed by the start marker.  A node owns
# the positions whose context ends with its predictor; its children partition
# them by the next-older context symbol (the start marker when the context is
# exactly the predictor).
# ---------------------------------------------------------------------------


def _positions(data: SequenceDataset):
    """Flat id matrix, and each position's index of its last context symbol.

    Matrix row s is the start marker, sequence s, its end marker if any, then
    start-marker padding, as wide as the longest row needs.  A position's next
    symbol is one step right of its index; the symbol extending a depth-D
    predictor is D steps left, never past the row's start marker, since a
    node whose predictor starts with it never splits."""
    lens = np.fromiter(map(len, data.sequences), dtype=np.intp, count=data.n)
    closed = ~np.asarray(data.open_ended, dtype=bool)
    width = int((lens + closed).max(initial=0)) + 1
    ids = np.full((data.n, width), START_ID, dtype=np.int32)
    ids[:, 1:][np.arange(width - 1) < lens[:, None]] = np.fromiter(
        itertools.chain.from_iterable(data.sequences), np.int32
    )
    ids[closed, lens[closed] + 1] = END_ID
    rows, offsets = np.nonzero(np.arange(width) < (lens + closed)[:, None])
    return ids.reshape(-1), rows * width + offsets


def build_private_pst(
    data: SequenceDataset,
    epsilon: float,
    rng: np.random.Generator | None = None,
    *,
    theta: float = 0.0,
    tree_budget_fraction: float | None = None,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    noiseless: bool = False,
) -> Pst:
    """Build a private PST: noisy structure first, noisy histograms second.

    Structure: the bias-decayed split loop with score ``pst_score`` and noise
    scale ``(2b-1)/(b-1) * l_max / eps_tree`` (fanout ``b = |alphabet|+1``,
    bias ``delta = lam * ln(b)``).  Nodes whose predictor starts with the
    start marker never split (nothing precedes the start marker), and they
    draw no split noise since the constraint is data-independent.

    Histograms: leaf histograms get Laplace noise of scale ``l_max /
    eps_hist``; internal histograms are their leaf sums, and any negative
    count in the released tree is then reset to zero.

    Budget: ``eps_tree = epsilon / b`` and ``eps_hist = epsilon * (b-1) / b``
    by default; pass ``tree_budget_fraction`` to override.  The score sums
    ``b - 1`` histogram counts, so giving the per-count histogram stage
    ``b - 1`` times the structure budget balances their noise levels.
    """
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon!r}")
    if not noiseless and rng is None:
        raise ParameterError("rng is required unless noiseless=True")
    if depth_cap < 0:
        raise ParameterError(f"depth_cap must be nonnegative, got {depth_cap!r}")
    beta = data.alphabet.fanout
    if tree_budget_fraction is None:
        tree_budget_fraction = 1.0 / beta
    if not 0.0 < tree_budget_fraction < 1.0:
        raise ParameterError(
            f"tree_budget_fraction must be in (0, 1), got {tree_budget_fraction!r}"
        )
    eps_tree = epsilon * tree_budget_fraction
    eps_hist = epsilon - eps_tree
    params = privtree_params(eps_tree, beta, theta, sensitivity=float(data.l_max))

    width = data.alphabet.size + 2
    kids = (START_ID, *data.alphabet.symbol_ids)
    symbols, positions = _positions(data)
    next_sym = symbols[positions + 1]
    preds, hist, levels = [()], [], []  # hist: exact, until noised below

    def decide(depth, sizes, items):
        first = len(preds) - sizes.size
        node_of = np.repeat(np.arange(sizes.size), sizes)
        hists = np.bincount(
            node_of * width + next_sym[items], minlength=sizes.size * width
        ).reshape(sizes.size, width).astype(np.float64)
        eligible = np.array([p[:1] != (START_ID,) for p in preds[first:]]) & (depth < depth_cap)
        split = biased_split(pst_score(hists), depth, params, rng, eligible, noiseless)
        hist.append(hists)
        levels.append((first, split))
        preds.extend((sym,) + p for p, s in zip(preds[first:], split) if s for sym in kids)
        return split

    def child_codes(depth, items, parent):
        # child order is (START, symbols...): START -> 0, symbol id s -> s - 1
        return np.maximum(symbols[positions[items] - depth] - 1, 0)

    grow_levels(positions.size, beta, decide, child_codes)

    # BFS ids: the s-th splitting node's children are 1 + s*b ... s*b + b, START first
    split = np.concatenate([s for _, s in levels])
    child = np.full((len(preds), width), -1, dtype=np.int64)
    child[np.ix_(split, kids)] = np.arange(1, len(preds)).reshape(-1, beta)
    hist = np.concatenate(hist)
    if not noiseless:
        hist[~split, 1:] += sample_laplace(
            data.l_max / eps_hist, rng, size=(np.count_nonzero(~split), width - 1)
        )
    # internal histograms are their children's sums, deepest level first;
    # negatives are zeroed afterwards so the sums themselves stay unbiased
    for first, level_split in reversed(levels):
        inner = first + np.flatnonzero(level_split)
        hist[inner] = sum(hist[c] for c in child[inner][:, kids].T)
    np.maximum(hist, 0.0, out=hist)

    info = {"epsilon": float(epsilon), "lambda": params.lam, "theta": params.theta,
            "delta": params.delta}
    return Pst(data.alphabet, data.l_max, preds=preds, child=child, hist=hist,
               params=params, params_info=info)


# ---------------------------------------------------------------------------
# queries, mining, generation
# ---------------------------------------------------------------------------


def _to_ids(pst: Pst, tokens):
    """Ids of ``tokens``, each a token or an id; an id must be one the
    alphabet assigns (``token_of`` rejects any other)."""
    alphabet = pst.alphabet
    return [
        alphabet.id_of(alphabet.token_of(t) if isinstance(t, (int, np.integer)) else t)
        for t in tokens
    ]


def _deepest_suffix_node(pst: Pst, context_ids) -> int:
    nid = pst.root
    for sym in reversed(context_ids):
        nxt = pst.child.item(nid, sym)
        if nxt < 0:
            break
        nid = nxt
    return nid


# Generation reads uniforms ahead in blocks of this many from a copy of the
# caller's generator, then advances the caller's generator by as many as it used.
_UNIFORM_BLOCK = 4096


class _State:
    """An automaton state: its context string, that string's deepest-suffix
    node, the node's magnitude and sampling row, and the transitions so far."""

    __slots__ = ("string", "node", "mag", "row", "trans")

    def __init__(self, string: tuple, node: int, mag: float, row: list):
        self.string, self.node, self.mag, self.row = string, node, mag, row
        self.trans = {}


class _ContextAutomaton:
    """The read side of a PST: an automaton over contexts (Aho-Corasick).

    The child links that :func:`_deepest_suffix_node` walks spell a string,
    oldest symbol first, for every node.  A state is a prefix of one of those
    strings: after reading a context, the longest suffix of the context that
    is such a prefix.  Every node string that is a suffix of the context is a
    suffix of the state's string, so the state's deepest-suffix node is the
    context's.  States and transitions are made on first use; there are at
    most 1 + (sum of node string lengths) states.
    """

    def __init__(self, pst: Pst):
        self._pst = pst
        table = pst.child.tolist()
        self._prefixes = {()}
        stack, reached = [(pst.root, ())], 0
        while stack:
            nid, string = stack.pop()
            reached += 1
            if reached > len(table):
                raise InputDataError("PST child links do not form a tree")
            for sym, child in enumerate(table[nid]):
                if child >= 0:
                    longer = (sym,) + string
                    self._prefixes.update(longer[:i] for i in range(1, len(longer) + 1))
                    stack.append((child, longer))
        self._cols = (END_ID, *pst.alphabet.symbol_ids)
        self.states = {}  # context string -> _State
        self.empty = self._state(())

    def _state(self, string: tuple) -> _State:
        state = self.states.get(string)
        if state is None:
            nid = _deepest_suffix_node(self._pst, string)
            hist = self._pst.hist[nid]
            state = _State(string, nid, float(hist.sum()), _sampling_row(hist.tolist(), self._cols))
            # one state per string, also when concurrent readers race here
            state = self.states.setdefault(string, state)
        return state

    def step(self, state: _State, sym: int) -> _State:
        """The state after reading ``sym`` in ``state``."""
        nxt = state.trans.get(sym)
        if nxt is None:
            string = state.string + (sym,)
            while string not in self._prefixes:
                string = string[1:]
            nxt = state.trans[sym] = self._state(string)
        return nxt


def _sampling_row(hist, cols) -> list:
    """Running maximum of the left fold of ``hist`` over ``cols``.

    The row is sorted, and ``bisect_right(row, u)`` is the first index whose
    fold exceeds ``u``: what a scan for the first ``u < acc`` returns, even
    when an entry is negative or NaN.  An index past the row means no entry
    was picked.
    """
    acc, top, row = 0.0, -math.inf, []
    for c in cols:
        acc += hist[c]
        if acc > top:
            top = acc
        row.append(top)
    return row


def _automaton(pst: Pst) -> _ContextAutomaton:
    if pst.hist is None:
        raise InputDataError("PST has no histograms attached")
    if pst._reader is None:
        pst._reader = _ContextAutomaton(pst)
    return pst._reader


def longest_suffix_node(pst: Pst, s) -> int:
    """Id of the deepest node whose predictor is a suffix of ``s``.

    ``s`` must carry the start marker as its first token; the root (empty
    predictor) always matches.
    """
    ids = _to_ids(pst, s)
    if not ids or ids[0] != START_ID:
        raise ParameterError("sequence must start with the start marker")
    if any(t == START_ID for t in ids[1:]):
        raise ParameterError("start marker may appear only at the front")
    return _deepest_suffix_node(pst, ids)


def estimate_string_count(pst: Pst, s_q) -> float:
    """Estimated number of occurrences of ``s_q`` across the source sequences.

    Multiplies, symbol by symbol, the next-symbol probability predicted by
    the deepest matching context node; the first factor is the root histogram
    count itself.  Returns 0 when any visited histogram is empty, so the
    query stays total on clamped noisy trees.
    """
    ids = _to_ids(pst, s_q)
    if not ids:
        raise ParameterError("query string must be nonempty")
    if any(t == START_ID for t in ids):
        raise ParameterError("query strings never contain the start marker")
    if any(t == END_ID for t in ids[:-1]):
        raise ParameterError("the end marker may only terminate a query string")
    reader = _automaton(pst)
    state = reader.empty
    ans = float(pst.hist[pst.root, ids[0]])
    for i in range(1, len(ids)):
        if ans == 0.0:
            return 0.0
        state = reader.step(state, ids[i - 1])
        if state.mag == 0.0:
            return 0.0
        ans *= float(pst.hist[state.node, ids[i]]) / state.mag
    return ans


def top_k_strings(pst: Pst, k: int):
    """Best-first mining of the ``k`` highest-estimate symbol strings.

    The search pops the highest pending estimate, emits it, and pushes its
    one-symbol extensions (up to length ``l_max``).  Every extension
    multiplies the estimate by a factor <= 1, so estimates never increase
    along extensions and the emission order is globally correct.  Ties break
    shorter-first, then by alphabet order.  Returns ``(token_tuple,
    estimate)`` pairs; fewer than ``k`` when the string space is exhausted.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ParameterError(f"k must be an integer >= 1, got {k!r}")
    reader = _automaton(pst)
    root_hist = pst.hist[pst.root].tolist()
    # an entry carries the state of its string without the last symbol
    heap = [(-root_hist[sym], 1, (sym,), reader.empty) for sym in pst.alphabet.symbol_ids]
    heapify(heap)
    out = []
    while heap and len(out) < k:
        neg_est, _, ids, state = heappop(heap)
        est = -neg_est
        out.append((tuple(pst.alphabet.token_of(t) for t in ids), est))
        if len(ids) >= pst.l_max:
            continue
        state = reader.step(state, ids[-1])
        hist, mag = pst.hist[state.node].tolist(), state.mag
        for sym in pst.alphabet.symbol_ids:
            child_est = est * hist[sym] / mag if mag > 0.0 else 0.0
            heappush(heap, (-child_est, len(ids) + 1, ids + (sym,), state))
    return out


def generate_sequences(pst: Pst, count: int, rng: np.random.Generator):
    """Sample synthetic sequences from the released model.

    Each sequence starts at the start marker and repeatedly samples the next
    symbol from the deepest matching context's normalized histogram until the
    end marker appears.  A hard cutoff at ``l_max`` emitted symbols ends the
    sequence regardless (clamped noisy histograms can lose the end marker);
    hitting a zero-magnitude histogram mid-sequence also ends it there.
    Returns token lists without sentinels.  Each sampled symbol, the end
    marker included, takes one ``rng.random()`` draw, and ``rng`` moves by
    exactly those draws.
    """
    if not (isinstance(count, (int, np.integer)) and count >= 0):
        raise ParameterError(f"count must be a nonnegative integer, got {count!r}")
    if pst.hist is None:
        raise InputDataError("PST has no histograms attached")
    if float(pst.hist[pst.root].sum()) <= 0.0:
        raise GenerationError("root histogram is empty; nothing to sample")
    reader = _automaton(pst)
    start = reader.step(reader.empty, START_ID)
    picks = (END_ID, *pst.alphabet.symbol_ids, END_ID)
    tokens = (START_TOKEN, END_TOKEN, *pst.alphabet.symbols)
    # read ahead from a copy; the caller's generator only moves by what is used
    ahead = copy.deepcopy(rng)
    block, pos, used = [], 0, 0
    out = []
    for _ in range(count):
        state = start
        emitted = []
        while len(emitted) < pst.l_max:
            mag = state.mag
            if mag <= 0.0:
                break
            if pos == len(block):
                used += pos
                block, pos = ahead.random(_UNIFORM_BLOCK).tolist(), 0
            sym = picks[bisect_right(state.row, block[pos] * mag)]
            pos += 1
            if sym == END_ID:
                break
            emitted.append(tokens[sym])
            state = state.trans.get(sym) or reader.step(state, sym)
        out.append(emitted)
    used += pos
    while used:
        chunk = min(used, _UNIFORM_BLOCK)
        rng.random(chunk)
        used -= chunk
    return out
