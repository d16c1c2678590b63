// T4 fixture: a bench main() that bypasses BenchSession and parses
// its own arguments.
// Expected: exactly 1 [T4] diagnostic (line 8).

#include <cstdio>

int
main(int argc, char **argv)
{
    // Hand-rolled argument parsing instead of the shared prologue.
    std::printf("%d\n", argc);
    (void)argv;
    return 0;
}
