package minic

// Lex exposes the lexer to the external allocation test, whose inputs
// come from packages that import minic.
var Lex = lex
