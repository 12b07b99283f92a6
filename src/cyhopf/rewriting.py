"""Rewriting systems over words in generators x_1..x_t, with no group attached.

A word is a tuple of 0-based generator indices.  A rule rewrites its
left-hand side to a combination of words with coefficients in Q(zeta_order);
every right-hand word must be smaller in the graded-lex order with
x_1 < ... < x_t, so rewriting terminates.  A RewritingSystem computes normal
forms (leftmost redex first, memoized), enumerates the normal words up to its
degree bound, and checks local confluence by the diamond lemma on every
ambiguity that fits the bound; a non-confluent system is accepted, and its
report says so.  smash.PresentedAlgebra extends it with a group, a grading
and an action; the rules' Gamma-homogeneity and chi-equivariance are checked
there.
MAX_WORD_LENGTH and NORMAL_WORD_BUDGET refuse oversized work before it starts:
each raises InputError.
"""

from __future__ import annotations

from functools import cached_property

from .cyclotomic import CycloNumber, one
from .errors import IndexOutOfRange, InputError

Word = tuple[int, ...]
MAX_WORD_LENGTH = 1000
NORMAL_WORD_BUDGET = 500


def graded_lex_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def parse_word(text: str, t: int) -> Word:
    """Parse "x2*x1^2" into a generator-index word (0-based)."""
    if not isinstance(text, str):
        raise InputError(f"word must be a string, got {text!r}")
    text = text.strip()
    if text in ("", "1"):
        return ()
    out: list[int] = []
    for token in text.split("*"):
        token = token.strip()
        name, _, power = token.partition("^")
        if not name.startswith("x"):
            raise InputError(f"bad word token {token!r}")
        try:
            idx = int(name[1:]) - 1
            k = int(power) if power else 1
        except ValueError as exc:
            raise InputError(f"bad word token {token!r}") from exc
        if not 0 <= idx < t:
            raise IndexOutOfRange(f"generator x{idx + 1} outside 1..{t}")
        if k < 0:
            raise InputError(f"negative power in word token {token!r}")
        if len(out) + k > MAX_WORD_LENGTH:
            raise InputError(f"word longer than {MAX_WORD_LENGTH} letters")
        out.extend([idx] * k)
    return tuple(out)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        parts.append(f"x{word[i] + 1}" if j - i == 1 else f"x{word[i] + 1}^{j - i}")
        i = j
    return "*".join(parts)


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

    def _redexes(self, word: Word):
        """(position, lhs) of every rule occurrence in word, leftmost first and,
        at one position, in graded-lex order of the left-hand sides."""
        n = len(word)
        for pos in range(n):
            for lhs in self._by_first.get(word[pos], ()):
                end = pos + len(lhs)
                if end <= n and word[pos:end] == lhs:
                    yield pos, lhs

    def _rewrite_at(self, word: Word, pos: int, lhs: Word) -> list[tuple[Word, CycloNumber]]:
        """The words, with their rule scalars, that replace lhs at pos."""
        head, tail = word[:pos], word[pos + len(lhs):]
        return [(head + rhs_word + tail, rc) for rhs_word, rc in self.rules[lhs]]

    def _normal_combination(self, word: Word) -> tuple[tuple[Word, CycloNumber], ...]:
        """Normal form of a word as a combination of normal words.

        Rewrites the leftmost redex and memoizes every intermediate word.  Works
        on an explicit stack, so long rewrite chains cannot hit the
        interpreter's recursion limit."""
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
            redex = next(self._redexes(w), None)
            if redex is None:
                cache[w] = ((w, one(self.order)),)
                continue
            children = self._rewrite_at(w, *redex)
            pending = [cw for cw, _rc in children if cw not in cache]
            if pending:
                stack.extend(pending)
                continue
            acc: dict[Word, CycloNumber] = {}
            for cw, rc in children:
                for nw, nc in cache[cw]:
                    _accumulate(acc, nw, nc * rc)
            cache[w] = tuple(sorted(acc.items(), key=lambda kv: graded_lex_key(kv[0])))
        return cache[word]

    def is_normal(self, word: Word) -> bool:
        return next(self._redexes(word), None) is None

    @cached_property
    def _all_normal_words(self) -> tuple[Word, ...]:
        """Normal words up to the degree bound, by degree, within NORMAL_WORD_BUDGET."""
        layer: list[Word] = [()]
        words = [()]
        for degree in range(1, self.degree_bound + 1):
            layer = [w + (i,) for w in layer for i in range(self.t) if self.is_normal(w + (i,))]
            if not layer:
                break
            words.extend(layer)
            if len(words) > NORMAL_WORD_BUDGET:
                raise InputError(
                    f"more than {NORMAL_WORD_BUDGET} normal words up to degree {degree}; "
                    f"lower the degree bound"
                )
        return tuple(words)

    def normal_words(self, max_degree: int | None = None) -> list[Word]:
        """Normal words of degree at most max_degree, clamped to the degree bound."""
        bound = self.degree_bound if max_degree is None else min(max_degree, self.degree_bound)
        return [w for w in self._all_normal_words if len(w) <= bound]


# -- local confluence ----------------------------------------------------------


class OverlapResult:
    """A divergent ambiguity and its two normal forms; equal by its fields."""

    def __init__(self, word: Word, first: str, second: str) -> None:
        self.word, self.first, self.second = word, first, second

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.word, self.first, self.second) == (other.word, other.first, other.second)

    def to_json(self) -> dict:
        return {"word": format_word(self.word), "first_branch": self.first,
                "second_branch": self.second}


class ConfluenceReport:
    """Equal by its fields."""

    def __init__(self, checked: int, skipped_over_bound: int,
                 divergent: list[OverlapResult]) -> None:
        self.checked = checked
        self.skipped_over_bound = skipped_over_bound
        self.divergent = divergent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.checked, self.skipped_over_bound, self.divergent)
                == (other.checked, other.skipped_over_bound, other.divergent))

    @property
    def ok(self) -> bool:
        return not self.divergent

    def to_json(self) -> dict:
        return {"locally_confluent": self.ok, "overlaps_checked": self.checked,
                "overlaps_skipped_over_bound": self.skipped_over_bound,
                "divergent": [d.to_json() for d in self.divergent]}


def check_local_confluence(system: RewritingSystem) -> ConfluenceReport:
    """Diamond-lemma check: rewrite every overlap/inclusion ambiguity of rule
    left-hand sides both ways to normal form, up to the degree bound.  An
    ambiguity of two rules whose right-hand sides are both 0 rewrites to 0
    both ways, so it is checked and resolved at any length."""
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
    checked = 0
    skipped = 0
    divergent = []
    for word, first, second in sorted(
        ambiguities, key=lambda a: (graded_lex_key(a[0]), a[1][0], a[2][0])
    ):
        if not system.rules[first[1]] and not system.rules[second[1]]:
            checked += 1
            continue
        if len(word) > system.degree_bound:
            skipped += 1
            continue
        checked += 1
        branches = []  # the normal form after rewriting at each of the two redexes
        for pos, lhs in (first, second):
            acc: dict[Word, CycloNumber] = {}
            for rewritten, rc in system._rewrite_at(word, pos, lhs):
                for nw, nc in system._normal_combination(rewritten):
                    _accumulate(acc, nw, rc * nc)
            branches.append(acc)
        if branches[0] != branches[1]:  # both hold nonzero coefficients only
            divergent.append(OverlapResult(word, *map(_render_combination, branches)))
    return ConfluenceReport(checked=checked, skipped_over_bound=skipped, divergent=divergent)


def _render_combination(comb: dict) -> str:
    items = sorted(comb.items(), key=lambda kv: graded_lex_key(kv[0]))
    return " + ".join(f"({c})*{format_word(w)}" for w, c in items) or "0"


def confluence_notes(system: RewritingSystem) -> tuple[str, ...]:
    if system.confluence.ok:
        return (f"rewriting system locally confluent up to degree {system.degree_bound}",)
    return (
        f"NonConfluent at bound {system.degree_bound}: "
        f"{len(system.confluence.divergent)} unresolved overlap(s); "
        f"normal forms and downstream verdicts may depend on rewrite order",
    )
