"""Term algebra of the free additively idempotent semiring.

A word is a nonempty sequence of variables (an element of the free
semigroup); a term is a finite nonempty *set* of words written as a formal
sum. Addition of terms is set union, multiplication concatenates words
pairwise, so duplicate summands always collapse.

Variable names are a single letter followed by optional digits ("x", "x1",
"y12"), which makes juxtaposed words such as ``x1x2`` tokenize uniquely.
Names are checked at the boundary only: the parsers and the public ``Word``,
``Term`` and ``Substitution`` constructors. Library code that already holds
valid letter tuples builds objects through the one trusted constructor of
each type, which skips the check: ``Word._of``, ``Term._of_letters`` and
``Substitution._of``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

Variable = str

_VARIABLE_RE = re.compile(r"[A-Za-z][0-9]*")


class TermSyntaxError(ValueError):
    """Input text does not match the term grammar."""


def check_variable(name: str) -> str:
    """Return ``name`` if it is a legal variable name, else raise."""
    if _VARIABLE_RE.fullmatch(name) is None:
        raise TermSyntaxError(f"illegal variable name {name!r}")
    return name


class Word:
    """Nonempty sequence of variables; ``*`` concatenates."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Variable]):
        letters = tuple(letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        for x in letters:
            check_variable(x)
        self.letters = letters

    @classmethod
    def _of(cls, letters: tuple[Variable, ...]) -> "Word":
        """Trusted constructor: a nonempty tuple of valid names."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Variable]:
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._of(self.letters + other.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def sort_key(self) -> tuple[int, tuple[Variable, ...]]:
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return "".join(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


TermKey = tuple[tuple[int, tuple[Variable, ...]], ...]


class Term:
    """Finite nonempty set of words, stored in a canonical order.

    Summands are kept sorted length-then-lexicographically with duplicates
    removed, so structural equality coincides with set equality and printing
    is deterministic. Order, equality and hashing read the term's sort key,
    one ``(len, letters)`` pair per summand, computed once.
    """

    __slots__ = ("words", "_key")

    def __init__(self, words: Iterable[Word]):
        ws = tuple(sorted(set(words), key=Word.sort_key))
        if not ws:
            raise ValueError("a term needs at least one summand")
        self.words = ws
        self._key = None

    @classmethod
    def _of_letters(cls, words: Iterable[tuple[Variable, ...]]) -> "Term":
        """Trusted constructor from a nonempty collection of letter tuples
        of valid names, in any order and possibly repeated. Like __init__,
        it leaves the sort key to sort_key(): most terms are never compared."""
        t = object.__new__(cls)
        t.words = tuple(Word._of(letters) for _, letters in term_key(words))
        t._key = None
        return t

    def sort_key(self) -> TermKey:
        key = self._key
        if key is None:
            key = self._key = tuple((len(w.letters), w.letters) for w in self.words)
        return key

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in set(self.words)

    def __add__(self, other: "Term") -> "Term":
        return Term(self.words + other.words)

    def __mul__(self, other: "Term") -> "Term":
        return Term._of_letters(
            a.letters + b.letters for a in self.words for b in other.words
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Term) and self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return print_term(self)

    def __repr__(self) -> str:
        return f"Term({print_term(self)!r})"


def term_key(words: Iterable[tuple[Variable, ...]]) -> TermKey:
    """Sort key of the term whose summands are the given letter tuples."""
    return tuple(sorted({(len(letters), letters) for letters in words}))


def add(s: Term, t: Term) -> Term:
    return s + t


def mul(s: Term, t: Term) -> Term:
    return s * t


def parse_word(text: str) -> Word:
    """Parse a single word: variables juxtaposed or separated by ``*``/space."""
    letters: list[Variable] = []
    for token in re.split(r"[\s*]+", text.strip()):
        if not token:
            continue
        pos = 0
        while pos < len(token):
            m = _VARIABLE_RE.match(token, pos)
            if m is None:
                raise TermSyntaxError(
                    f"illegal identifier starting at {token[pos:]!r}"
                )
            letters.append(m.group())
            pos = m.end()
    if not letters:
        raise TermSyntaxError(f"empty word in {text!r}")
    return Word._of(tuple(letters))


def parse_term(text: str) -> Term:
    """Parse ``w1 + w2 + ...`` where each summand is a word.

    Duplicate summands collapse; the grammar has no parentheses because
    every term is a flat sum of words.
    """
    if not text or not text.strip():
        raise TermSyntaxError("empty term")
    words = []
    for chunk in text.split("+"):
        if not chunk.strip():
            raise TermSyntaxError(f"empty summand in {text!r}")
        words.append(parse_word(chunk))
    return Term(words)


def print_term(t: Term) -> str:
    return " + ".join(str(w) for w in t.words)


def content(item: Word | Term) -> frozenset[Variable]:
    """Set of variables occurring in a word or term."""
    if isinstance(item, Word):
        return frozenset(item.letters)
    return frozenset(x for w in item.words for x in w.letters)


def length(w: Word) -> int:
    """Number of letters, counting multiplicities."""
    return len(w)


def occ(x: Variable, w: Word) -> int:
    """Number of occurrences of variable ``x`` in word ``w``."""
    return w.letters.count(x)


def is_linear(w: Word) -> bool:
    """True iff every variable of ``w`` occurs exactly once."""
    return len(set(w.letters)) == len(w.letters)


def factors2(item: Word | Term) -> frozenset[Word]:
    """All contiguous two-letter factors of a word (or of every summand)."""
    if isinstance(item, Term):
        return frozenset(f for w in item.words for f in factors2(w))
    ls = item.letters
    return frozenset(Word._of(ls[i : i + 2]) for i in range(len(ls) - 1))


def subwords2(item: Word | Term) -> frozenset[Word]:
    """All two-letter scattered subwords (order-preserving subsequences)."""
    if isinstance(item, Term):
        return frozenset(f for w in item.words for f in subwords2(w))
    ls = item.letters
    return frozenset(
        Word._of((ls[i], ls[j]))
        for i in range(len(ls))
        for j in range(i + 1, len(ls))
    )


def level(k: int, u: Term) -> frozenset[Word]:
    """Summands of ``u`` of length exactly ``k``."""
    if k < 1:
        raise ValueError("level index must be >= 1")
    return frozenset(w for w in u.words if len(w) == k)


def level_geq(k: int, u: Term) -> frozenset[Word]:
    """Summands of ``u`` of length at least ``k``."""
    if k < 1:
        raise ValueError("level index must be >= 1")
    return frozenset(w for w in u.words if len(w) >= k)


def delta(u: Term) -> frozenset[frozenset[Variable]]:
    """Variable sets meeting every summand in exactly one letter.

    Returns all Z subseteq content(u) such that for each summand w the
    intersection Z & content(w) is a single variable occurring exactly once
    in w. Found by backtracking over summands rather than enumerating all
    subsets, so it stays fast on many-variable terms.
    """
    summands = u.words
    found: set[frozenset[Variable]] = set()
    # depth-first over summands; a state maps each variable decided so far
    # to whether it is in Z
    stack: list[tuple[int, dict[Variable, bool]]] = [(0, {})]
    while stack:
        i, state = stack.pop()
        if i == len(summands):
            found.add(frozenset(v for v, inz in state.items() if inz))
            continue
        w = summands[i]
        vars_w = sorted(set(w.letters))
        chosen = [v for v in vars_w if state.get(v) is True]
        if len(chosen) > 1:
            continue
        for x in chosen or vars_w:
            if state.get(x) is False or occ(x, w) != 1:
                continue
            nxt = dict(state)
            nxt.update((v, v == x) for v in vars_w)
            stack.append((i + 1, nxt))
    return frozenset(found)


class Substitution:
    """Finite map from variables to terms, extended homomorphically.

    Variables outside the map are fixed. Applying to a word multiplies the
    images of its letters; applying to a term unions the images of its
    summands.
    """

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[Variable, Term] | None = None):
        self.mapping = dict(mapping or {})
        for x in self.mapping:
            check_variable(x)

    @classmethod
    def _of(cls, mapping: dict[Variable, Term]) -> "Substitution":
        """Trusted constructor: takes ownership of a dict keyed by valid
        names."""
        phi = object.__new__(cls)
        phi.mapping = mapping
        return phi

    def __call__(self, item: Word | Term) -> Term:
        # each summand's image grows a letter at a time, collapsing duplicates
        out: set[tuple[Variable, ...]] = set()
        for w in (item,) if isinstance(item, Word) else item.words:
            image = {()}
            for x in w.letters:
                img = self.mapping.get(x)
                ends = ((x,),) if img is None else [b.letters for b in img.words]
                image = {a + b for a in image for b in ends}
            out |= image
        return Term._of_letters(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{x} := {print_term(t)}" for x, t in sorted(self.mapping.items())
        )
        return f"Substitution({inner})"


def apply(phi: Substitution, item: Word | Term) -> Term:
    return phi(item)


def commutative_normalize(t: Term) -> Term:
    """Sort the letters of each word; summands made equal collapse."""
    return Term._of_letters(tuple(sorted(w.letters)) for w in t.words)


@dataclass(frozen=True)
class SubtermWitness:
    """Witness that u embeds into v: v = left . u . right + rest."""

    left: tuple[Variable, ...]
    right: tuple[Variable, ...]
    rest: Term | None


def wrap(t: Term, left: tuple[Variable, ...] = (), right: tuple[Variable, ...] = (),
         rest: Term | None = None) -> Term:
    """Build ``left . t . right + rest`` with possibly-empty word contexts."""
    for x in left + right:
        check_variable(x)
    words = [left + w.letters + right for w in t.words]
    if rest is not None:
        words += [w.letters for w in rest.words]
    return Term._of_letters(words)


def is_subterm(u: Term, v: Term) -> SubtermWitness | None:
    """Find word contexts showing u is a subterm of v, or None.

    The contexts are searched among factorizations of v's own words, which
    is complete: any successful embedding must send the first summand of u
    into some word of v.
    """
    anchor = u.words[0].letters
    v_words = {w.letters for w in v.words}
    # v's words are tried in sorted order, so the least host word gives the
    # witness; each context is tried once, as with the anchor it fixes the
    # host word and the offset, and v's words differ
    for x in v.words:
        ls = x.letters
        for i in range(len(ls) - len(anchor) + 1):
            if ls[i : i + len(anchor)] != anchor:
                continue
            left, right = ls[:i], ls[i + len(anchor):]
            image = {left + w.letters + right for w in u.words}
            if image <= v_words:
                leftover = v_words - image
                return SubtermWitness(
                    left, right, Term._of_letters(leftover) if leftover else None
                )
    return None
