(** Online summary statistics (Welford accumulation) and small helpers used
    by the experiment harness when aggregating repeated simulation runs. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int
val total : t -> float
val mean : t -> float
(** Mean of the samples; 0 if empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val min : t -> float
(** Smallest sample; [infinity] if empty. *)

val max : t -> float
(** Largest sample; [neg_infinity] if empty. *)

val percent : num:float -> den:float -> float
(** [percent ~num ~den] is [100 * num / den], or 0 when [den = 0]. *)

val ratio : num:float -> den:float -> float
(** [num / den], or 0 when [den = 0]. *)
