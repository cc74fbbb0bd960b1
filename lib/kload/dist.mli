(** Heavy-tailed distributions for the load generator, all driven by an
    explicit {!Ksim.Rng.t} so draws replay exactly from the seed.

    Real multi-tenant traffic is not Poisson: think times and request
    sizes are Pareto (a few giants dominate the mass) and key popularity
    is Zipfian (a few keys take most of the traffic).  These are the
    standard storage/tenant-workload shapes (cf. YCSB's zipfian request
    distribution). *)

val pareto : Ksim.Rng.t -> alpha:float -> xmin:float -> float
(** One draw from a Pareto distribution with shape [alpha] and scale
    [xmin] (so every draw is [>= xmin]).  Smaller [alpha] = heavier
    tail; [alpha <= 1] has infinite mean.
    @raise Invalid_argument on non-positive [alpha] or [xmin]. *)

(** Pareto truncated to [\[xmin, xmax\]] by inverse CDF (not by
    rejection), so one RNG draw per sample and the tail mass folds into
    the bound deterministically.  Draws are rounded down to integers —
    think times in simulated ns, payload sizes in bytes. *)
module Bounded_pareto : sig
  type t

  val create : alpha:float -> xmin:int -> xmax:int -> t
  (** Shape [alpha], support [\[xmin, xmax\]]; the draw-independent
      constants ([xmin ** alpha], [xmax ** alpha]) are computed here,
      once.  @raise Invalid_argument on non-positive [alpha] or [xmin],
      or [xmax < xmin]. *)

  val draw : t -> Ksim.Rng.t -> int
  (** One sample in [\[xmin, xmax\]], one RNG draw. *)
end

(** Zipfian ranks over a finite key space, by precomputed inverse CDF. *)
module Zipf : sig
  type t

  val create : ?s:float -> n:int -> unit -> t
  (** Ranks [0 .. n-1] with P(k) proportional to [1/(k+1)^s].  Default
      [s = 1.01], the classic skew where the top rank takes a few
      percent of all traffic.  @raise Invalid_argument on [n <= 0] or
      negative [s]. *)

  val n : t -> int

  val draw : t -> Ksim.Rng.t -> int
  (** One rank, by binary search over the cumulative table: O(log n),
    one RNG draw. *)
end
