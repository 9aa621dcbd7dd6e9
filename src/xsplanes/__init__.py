"""xorshift128+ with exhaustive xor-arithmetic checks and plane-structure experiments."""
