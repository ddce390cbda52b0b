// A memory immediate past 32 bits used to wrap silently to [R0+0], so
// admission checked an address the author never wrote. Rejected: parse.
.regs 8
    MOVI R0, 0
    LDG R1, [R0+4294967296] &wr=sb0
    EXIT
