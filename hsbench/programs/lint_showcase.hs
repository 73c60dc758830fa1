% Lint fixture: one program tripping every warning/note-severity
% diagnostic. Deliberately NOT clean — the golden lint output over this
% file is pinned by tests/lint/golden_test; keep edits in sync with the
% goldens there.

% HS005: infinite relation with no constraints at all.
.infinite osc/2.

% HS006: a monotonicity constraint relating two positions that no
% finiteness dependency or constant bound ever bounds.
.infinite dec/2.
.mono dec: 1 > 2.

% HS011: the third dependency follows from the first two by transitivity.
.infinite chain/3.
.fd chain: 1 -> 2.
.fd chain: 2 -> 3.
.fd chain: 1 -> 3.

edge(a, b).
edge(b, c).

path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).

% HS008: alpha-equivalent to the first path rule.
path(U, V) :- edge(U, V).

% HS007 (+ HS009): recursion with no base case, reached by no query.
loop(X) :- loop(X).

% HS009 + HS010: unreachable, and 'Extra' occurs exactly once.
wrong(X) :- edge(X, Extra).

?- path(a, Y).
