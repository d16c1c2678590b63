// Lexer regression: digit separators lex as part of the number. If
// the apostrophes were treated as char-literal quotes, the pair on
// the mutator line below would swallow the call between them and
// hide the A2; if the number pattern over-consumed past a separator,
// the hex literal would eat the punctuation after it.
void poke(Spec &spec) {
    unsigned a = 1'000; spec.recordStore(a); unsigned b = 2'000;
    configure(0xFF'FF, 'x', b);
}
