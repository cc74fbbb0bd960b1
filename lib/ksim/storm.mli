(** Fault-injection storms: composed, replayable {!Failpoint} schedules.

    A storm is a set of {e bursts}, each arming one failpoint site over a
    half-open window of abstract time ([start <= now < stop]).  The
    caller drives time explicitly with {!tick} (the load harness ticks
    once per generated operation), so storms inherit the simulator's
    determinism: same seed, same tick sequence — identical injections.

    Multiple schedules may be {!add}ed to one storm and may overlap on
    the same site.  Composition semantics, applied at every window
    boundary:

    - a site is enabled iff at least one burst covers [now];
    - the effective probability of [k] overlapping bursts is
      [1 - prod (1 - p_i)] (independent storms compose like independent
      fault sources);
    - the site's [times] budget is the sum of the finite budgets of the
      covering bursts, refreshed at each composition change ([-1], i.e.
      unlimited, wins if any covering burst is unlimited).  Between
      boundaries the live countdown is left alone so injections drain
      the window's budget normally.

    Sites never touched by any burst are left entirely alone, so a storm
    can ride on a registry whose other sites are managed elsewhere. *)

type burst = {
  site : string;
  start : int;  (** first tick the burst covers *)
  stop : int;  (** first tick after the burst *)
  probability : float;
  times : int;  (** injection budget for the burst; [-1] = unlimited *)
}

type t

val create : fp:Failpoint.t -> unit -> t
(** An empty storm over the registry. *)

val add : t -> burst list -> unit
(** Compose one more schedule into the storm.  Overlaps — including on
    the same site — are allowed; see the composition semantics above.
    @raise Invalid_argument on an empty window or probability outside
    [0,1]. *)

val bursts : t -> burst list
(** Every burst added so far, in stable (site, start, stop) order. *)

val tick : t -> int -> unit
(** Advance storm time to [now]: reconfigure every managed site whose
    set of covering bursts changed since the last applied window.
    [now] may move in either direction.  O(1) while [now] stays between
    the nearest burst boundaries (starts and stops) around the last
    applied tick; crossing a boundary, or the first tick after {!add} or
    {!disable}, recomputes every managed site in O(sites × bursts). *)

val disable : t -> unit
(** Kill the storm mid-burst: disable every managed site and forget the
    applied windows (a later {!tick} re-arms whatever its window says —
    permanent shutdown is simply not ticking again). *)

val active : t -> int -> (string * float * int) list
(** [(site, effective probability, window budget)] for every site with a
    covering burst at the given tick, sorted by site — the composition
    {!tick} would apply, exposed for tests. *)
