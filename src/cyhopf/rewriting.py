"""Rewriting systems over words in generators x_1..x_t, with no group attached.

A word is a tuple of 0-based generator indices.  A rule rewrites its
left-hand side to a combination of words with coefficients in Q(zeta_order);
every right-hand word must be smaller in the graded-lex order with
x_1 < ... < x_t, so rewriting terminates.  A RewritingSystem computes normal
forms (memoized), lists the normal words up to a degree for a library caller
(its degree bound is only the default degree; no verb lists them), and checks
local confluence by the diamond lemma on every ambiguity, each at its own
length: an ambiguity is shorter than two left-hand sides, so there are
finitely many.  A non-confluent system is accepted, and its report says so.
Normal forms rewrite the first redex (_first_redex): the leftmost occurrence
of a left-hand side and, of those at that position, the graded-lex least.  A
non-confluent system's normal forms, and so its NonConfluent reports, depend
on that order.  The unit of Q(zeta_order) is resolved once per system, on
first use (_one), so a system whose field has no power table is refused only
where a normal form is built.  smash.PresentedAlgebra extends it with a
group, a grading and an action; the rules' Gamma-homogeneity and
chi-equivariance are checked there.
MAX_WORD_LENGTH and REWRITE_BUDGET refuse oversized work before it completes,
and NORMAL_WORD_BUDGET refuses a list of normal words that no verb asks for,
whatever degree the caller asks it to reach: each raises InputError.
"""

from __future__ import annotations

from functools import cached_property
from itertools import groupby

from .cyclotomic import CycloNumber, euler_phi, one
from .errors import IndexOutOfRange, InputError, Record, is_decimal

Word = tuple[int, ...]
MAX_WORD_LENGTH = 1000
# Limit on the normal words that normal_words lists; no verb lists them.
NORMAL_WORD_BUDGET = 500
# Limit on the work of the confluence check: one unit per word it rewrites, and
# phi(N) per term product it forms, N the order, phi(N) the rational parts of a
# coefficient.  The largest check of any test input, bundled file or benchmark
# input costs 71160 (six commuting generators over Z_593); a bundled file's, 12.
REWRITE_BUDGET = 100_000


def graded_lex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def parse_word(text: str, t: int) -> Word:
    """Parse "x2*x1^2" into a generator-index word (0-based).  A token is x and
    ASCII digits, then optionally ^ and ASCII digits."""
    if not isinstance(text, str):
        raise InputError(f"word must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "1"):
        return ()
    out: list[int] = []
    for token in text.split("*"):
        token = token.strip()
        name, caret, power = token.partition("^")
        if name[:1] != "x" or not is_decimal(name[1:], signed=False) or (
                caret and not is_decimal(power, signed=False)):
            raise InputError(f"bad word token {token!r}")
        try:
            idx, k = int(name[1:]) - 1, int(power) if caret else 1
        except ValueError as exc:  # a number over the int-string digit limit
            raise InputError(f"bad word token {token!r}") from exc
        if not 0 <= idx < t:
            raise IndexOutOfRange(f"generator x{idx + 1} outside 1..{t}")
        if len(out) + k > MAX_WORD_LENGTH:
            raise InputError(f"word longer than {MAX_WORD_LENGTH} letters")
        out.extend([idx] * k)
    return tuple(out)


def format_word(word: Word) -> str:
    """The word as parse_word reads it, each run of one generator as a power:
    (1, 0, 0) is "x2*x1^2", the empty word "1"."""
    runs = [(i + 1, len(list(run))) for i, run in groupby(word)]
    return "*".join(f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in runs) or "1"


def _accumulate(store: dict, key, value) -> None:
    prev = store.get(key)
    if prev is None:
        store[key] = value
    else:
        s = prev + value
        if s.is_zero():
            del store[key]
        else:
            store[key] = s


class RewritingSystem:
    """Rules over words in t generators: lhs -> ((word, coefficient), ...), each
    coefficient nonzero in Q(zeta_order) and each word graded-lex smaller than
    lhs, as the caller validates.  Local confluence is checked once."""

    def __init__(self, t: int, order: int,
                 rules: dict[Word, tuple[tuple[Word, CycloNumber], ...]], degree_bound: int) -> None:
        self.t = t
        self.order = order
        self.rules = rules
        self.degree_bound = degree_bound
        self._nf_cache: dict[Word, tuple[tuple[Word, CycloNumber], ...]] = {}
        self._by_first: dict[int, list[Word]] = {}
        for lhs in sorted(rules, key=graded_lex_key):
            self._by_first.setdefault(lhs[0], []).append(lhs)
        self.confluence = check_local_confluence(self)

    @cached_property
    def _one(self) -> CycloNumber:
        """1 in Q(zeta_order), resolved on first use."""
        return one(self.order)

    def _first_redex(self, word: Word) -> tuple[int, Word] | None:
        """(position, lhs) of the leftmost rule occurrence in word, the graded-lex
        least lhs at that position; None if word is normal."""
        by_first = self._by_first
        for pos, letter in enumerate(word):
            for lhs in by_first.get(letter, ()):
                if word[pos:pos + len(lhs)] == lhs:  # a slice cut short by the end differs
                    return pos, lhs
        return None

    def _rewrite_at(self, word: Word, pos: int, lhs: Word) -> list[tuple[Word, CycloNumber]]:
        """The words, with their rule scalars, that replace lhs at pos."""
        head, tail = word[:pos], word[pos + len(lhs):]
        return [(head + rhs_word + tail, rc) for rhs_word, rc in self.rules[lhs]]

    def _normal_combination(self, word: Word, spend=None) -> tuple[tuple[Word, CycloNumber], ...]:
        """Normal form of a word as a combination of normal words.

        Rewrites the leftmost redex and memoizes every intermediate word.  Works
        on an explicit stack, so long rewrite chains cannot hit the
        interpreter's recursion limit.  spend, if given, is called with the
        number of term products each rewritten word forms, before it forms
        them, and may raise to stop the work."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        cache = self._nf_cache
        stack = [word]
        while stack:
            w = stack[-1]
            if w in cache:
                stack.pop()
                continue
            redex = self._first_redex(w)
            if redex is None:
                cache[w] = ((w, self._one),)
                continue
            children = self._rewrite_at(w, *redex)
            pending = [cw for cw, _rc in children if cw not in cache]
            if pending:
                stack.extend(pending)
                continue
            if spend is not None:
                spend(sum(len(cache[cw]) for cw, _rc in children))
            acc: dict[Word, CycloNumber] = {}
            for cw, rc in children:
                for nw, nc in cache[cw]:
                    _accumulate(acc, nw, nc * rc)
            cache[w] = tuple(sorted(acc.items(), key=lambda kv: graded_lex_key(kv[0])))
        return cache[word]

    def is_normal(self, word: Word) -> bool:
        return self._first_redex(word) is None

    def normal_words(self, max_degree: int | None = None) -> list[Word]:
        """Normal words of degree at most max_degree, by degree, within
        NORMAL_WORD_BUDGET; max_degree defaults to the degree bound.  For library
        callers, no verb lists them."""
        top = self.degree_bound if max_degree is None else max_degree
        layer: list[Word] = [()]
        words: list[Word] = [()] if top >= 0 else []
        for degree in range(1, top + 1):
            layer = [w + (i,) for w in layer for i in range(self.t) if self.is_normal(w + (i,))]
            if not layer:
                break
            words.extend(layer)
            if len(words) > NORMAL_WORD_BUDGET:
                raise InputError(f"more than {NORMAL_WORD_BUDGET} normal words up to degree {degree}")
        return words


# -- local confluence ----------------------------------------------------------


class OverlapResult(Record):
    """A divergent ambiguity and its two normal forms; equal by its fields."""

    _compared = ("word", "first", "second")
    __hash__ = None

    def __init__(self, word: Word, first: str, second: str) -> None:
        self.word, self.first, self.second = word, first, second

    def to_json(self) -> dict:
        return {"word": format_word(self.word), "first_branch": self.first,
                "second_branch": self.second}


class ConfluenceReport(Record):
    """Equal by its fields."""

    _compared = ("checked", "divergent")
    __hash__ = None

    def __init__(self, checked: int, divergent: list[OverlapResult]) -> None:
        self.checked = checked
        self.divergent = divergent

    @property
    def ok(self) -> bool:
        return not self.divergent

    def to_json(self) -> dict:
        return {"locally_confluent": self.ok, "overlaps_checked": self.checked,
                "divergent": [d.to_json() for d in self.divergent]}


def check_local_confluence(system: RewritingSystem) -> ConfluenceReport:
    """Diamond-lemma check: rewrite every overlap/inclusion ambiguity of rule
    left-hand sides both ways to normal form, at its own length; within
    REWRITE_BUDGET, charged one unit per word rewritten and phi(N) per term
    product.  An ambiguity of two rules whose right-hand sides are both 0
    rewrites to 0 both ways at once."""
    lhss = sorted(system.rules, key=graded_lex_key)
    ambiguities: set[tuple[Word, tuple[int, Word], tuple[int, Word]]] = set()
    for u in lhss:
        for v in lhss:
            # proper overlap: nonempty suffix of u equals prefix of v
            for o in range(1, min(len(u), len(v))):
                if u[len(u) - o:] == v[:o]:
                    word = u + v[o:]
                    ambiguities.add((word, (0, u), (len(u) - o, v)))
            # inclusion: v occurs inside u at a position other than (0, whole)
            if len(v) < len(u):
                for p in range(len(u) - len(v) + 1):
                    if u[p:p + len(v)] == v:
                        ambiguities.add((u, (0, u), (p, v)))
    spent, phi = 0, euler_phi(system.order)

    def spend(products: int) -> None:
        nonlocal spent
        spent += 1 + products * phi
        if spent > REWRITE_BUDGET:
            raise InputError(f"resolving the rule overlaps costs over {REWRITE_BUDGET} "
                             f"rewrite steps and term products times phi({system.order})")

    divergent = []
    for word, first, second in sorted(
        ambiguities, key=lambda a: (graded_lex_key(a[0]), a[1][0], a[2][0])
    ):
        branches = []  # the normal form after rewriting at each of the two redexes
        for pos, lhs in (first, second):
            acc: dict[Word, CycloNumber] = {}
            for rewritten, rc in system._rewrite_at(word, pos, lhs):
                normal = system._normal_combination(rewritten, spend)
                spend(len(normal))
                for nw, nc in normal:
                    _accumulate(acc, nw, rc * nc)
            branches.append(acc)
        if branches[0] != branches[1]:  # both hold nonzero coefficients only
            divergent.append(OverlapResult(word, *map(_render_combination, branches)))
    return ConfluenceReport(checked=len(ambiguities), divergent=divergent)


def _render_combination(comb: dict) -> str:
    items = sorted(comb.items(), key=lambda kv: graded_lex_key(kv[0]))
    return " + ".join(f"({c})*{format_word(w)}" for w, c in items) or "0"


def confluence_notes(system: RewritingSystem) -> tuple[str, ...]:
    if system.confluence.ok:
        return ("rewriting system locally confluent",)
    return (
        f"NonConfluent: {len(system.confluence.divergent)} unresolved overlap(s); "
        f"normal forms and downstream verdicts may depend on rewrite order",
    )
