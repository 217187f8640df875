(** Shared number-theoretic helpers for the three prime-finding workloads.
    These compute the *answers* in plain OCaml; the simulated programs then
    issue the memory references and compute time the 1989 codes would have
    spent obtaining them. *)

val isqrt : int -> int
(** Integer square root (largest s with s*s <= n). *)

val primes_upto : int -> int array
(** All primes <= n in increasing order (a sieve of the odd numbers). *)

val count_odd_multiples_in_bit_range : p:int -> lo_bit:int -> hi_bit:int -> limit:int -> int
(** Number of sieve marks prime [p] makes in the odd-number bit vector
    between bit indices [lo_bit] and [hi_bit] (inclusive), where bit [i]
    stands for the odd number [2*i + 3] and marking starts at [p*p],
    bounded by [limit]. *)
