// Lexer regression: an encoding-prefixed multiline raw string is ONE
// literal. A lexer that stops at the identifier `LR` feeds the string
// body to the passes as if it were code — firing a false A2 on
// the quoted mutator below — and its stray quotes then mis-pair with
// later literals, corrupting line attribution for the real call.
#include "core/specstate.h"

static const wchar_t *kDoc = LR"doc(
    spec.recordStore(hidden);
    victim.insert(line);
)doc";

void poke(tlsim::SpecState &spec, unsigned line) {
    spec.recordStore(line);
}
