(* The retrying block layer: bounded attempts with deterministic
   exponential backoff on a simulated clock.

   Transient errors (EIO, EAGAIN, ENOMEM) are retried up to
   [max_attempts] total attempts, sleeping base * 2^(attempt-1) simulated
   nanoseconds (capped) between attempts; the clock is a plain counter so
   runs are exactly reproducible.  Non-transient errors (EINVAL, ...)
   fail immediately without burning budget.  When the budget is exhausted
   the op gets a *permanent* verdict: the error propagates to the caller,
   [permanent_failures] increments, and an event lands on the trace —
   that verdict is what flips the file system above us into read-only
   degraded mode.

   [jitter] decorrelates concurrent retriers: each backoff sleep is
   stretched by a draw from the instance's own SplitMix64 stream
   (derived from [seed]), up to [jitter * backoff] extra ns, so two
   instances facing the same fault schedule do not retry in lockstep.
   The stream is per-instance and seeded, so [simulated_ns] stays
   exactly replayable. *)

type t = {
  base : Io.t;
  max_attempts : int;
  backoff_base : int;
  backoff_cap : int;
  jitter : float;
  rng : Ksim.Rng.t;
  trace : Ksim.Ktrace.t;
  mutable clock : int; (* simulated ns slept in backoff *)
  mutable ops : int;
  mutable retries : int;
  mutable recovered_ops : int;
  mutable permanent_failures : int;
}

let create ?(max_attempts = 4) ?(backoff_base = 100) ?(backoff_cap = 10_000) ?(jitter = 0.0)
    ?(seed = 0) ?(trace = Ksim.Ktrace.global) base =
  if max_attempts < 1 then invalid_arg "Resilient.create: max_attempts";
  if jitter < 0.0 || jitter > 1.0 then invalid_arg "Resilient.create: jitter";
  {
    base;
    max_attempts;
    backoff_base;
    backoff_cap;
    jitter;
    rng = Ksim.Rng.of_int seed;
    trace;
    clock = 0;
    ops = 0;
    retries = 0;
    recovered_ops = 0;
    permanent_failures = 0;
  }

let transient = function
  | Ksim.Errno.EIO | Ksim.Errno.EAGAIN | Ksim.Errno.ENOMEM -> true
  | _ -> false

let backoff t attempt =
  let base = min t.backoff_cap (t.backoff_base * (1 lsl min (attempt - 1) 20)) in
  (* Seeded jitter: the draw comes from this instance's own stream, so
     it is replayable yet different across instances with distinct
     seeds — concurrent retriers spread out instead of stampeding. *)
  let spread = int_of_float (t.jitter *. float_of_int base) in
  if spread > 0 then base + Ksim.Rng.int t.rng (spread + 1) else base

(* What an op was, formatted only when a trace event needs it. *)
type label =
  | Read of int
  | Write of int
  | Write_fua of int
  | Flush

let pp_label ppf = function
  | Read blkno -> Format.fprintf ppf "read %d" blkno
  | Write blkno -> Format.fprintf ppf "write %d" blkno
  | Write_fua blkno -> Format.fprintf ppf "write-fua %d" blkno
  | Flush -> Format.pp_print_string ppf "flush"

let run t label f =
  t.ops <- t.ops + 1;
  let rec go attempt =
    match f () with
    | Ok v ->
        if attempt > 1 then begin
          t.recovered_ops <- t.recovered_ops + 1;
          Ksim.Ktrace.emitf t.trace ~category:"resilient" "%a: recovered on attempt %d"
            pp_label label attempt
        end;
        Ok v
    | Error e when transient e && attempt < t.max_attempts ->
        t.retries <- t.retries + 1;
        t.clock <- t.clock + backoff t attempt;
        go (attempt + 1)
    | Error e ->
        if transient e then begin
          t.permanent_failures <- t.permanent_failures + 1;
          Ksim.Ktrace.emitf t.trace ~category:"resilient"
            "%a: permanent failure (%s) after %d attempts" pp_label label
            (Ksim.Errno.to_string e) attempt
        end;
        Error e
  in
  go 1

let read t blkno = run t (Read blkno) (fun () -> t.base.Io.read blkno)
let write t blkno data = run t (Write blkno) (fun () -> t.base.Io.write blkno data)
let flush t = run t Flush (fun () -> t.base.Io.flush ())
let write_fua t blkno data = run t (Write_fua blkno) (fun () -> Io.fua t.base blkno data)

let io t : Io.t =
  {
    Io.nblocks = t.base.Io.nblocks;
    block_size = t.base.Io.block_size;
    read = read t;
    write = write t;
    flush = (fun () -> flush t);
    write_fua = Some (write_fua t);
  }

let ops t = t.ops
let retries t = t.retries
let recovered_ops t = t.recovered_ops
let permanent_failures t = t.permanent_failures
let simulated_ns t = t.clock

let publish t stats prefix =
  Ksim.Kstats.incr ~by:t.ops stats (prefix ^ ".ops");
  Ksim.Kstats.incr ~by:t.retries stats (prefix ^ ".retries");
  Ksim.Kstats.incr ~by:t.recovered_ops stats (prefix ^ ".recovered");
  Ksim.Kstats.incr ~by:t.permanent_failures stats (prefix ^ ".permanent")
