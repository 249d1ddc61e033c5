(** Log-bucketed value histograms with quantile queries — the latency
    aggregation primitive behind the serving-layer TTFT / per-token
    percentiles. Like {!Counter}, histograms are interned by name so any
    domain or systhread observes into the same instance; all operations
    are thread-safe, so per-domain observations merge automatically.
    Buckets are geometrically spaced (~9% relative resolution) — quantiles
    are exact to one bucket width. *)

type t

(** Same name, same histogram (interned). *)
val find_or_create : string -> t

val name : t -> string

(** Record one observation (any positive value; unit is the caller's —
    pick one per histogram, e.g. milliseconds). *)
val observe : t -> float -> unit

val count : t -> int
val sum : t -> float

(** [nan] while empty. *)
val mean : t -> float

val min_value : t -> float
val max_value : t -> float

(** [quantile h q] for q in [0, 1] — nearest-rank over the bucketed
    distribution, within one bucket width (~9%) of exact; [nan] while
    empty. *)
val quantile : t -> float -> float

(** Fold [src]'s buckets into [into] (e.g. merging per-domain shards). *)
val merge_into : t -> into:t -> unit

(** All histograms, sorted by name. *)
val all : unit -> t list

(** Zero counts but keep identity (callers may cache the handle). *)
val reset : t -> unit

val reset_all : unit -> unit
