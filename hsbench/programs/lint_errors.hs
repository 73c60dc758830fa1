% Lint fixture: error-severity diagnostics. `hornsafe lint` exits 2 on
% this file; golden-tested alongside lint_showcase.hs.

edge(a, b).

% HS002: head variable Y occurs nowhere else in the rule, so free/2
% holds for every Y in the domain (range restriction).
free(X, Y) :- edge(X, X).

?- free(a, Y).
