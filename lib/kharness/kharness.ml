(* The refinement-harness registry (see kharness.mli).  Registration is
   the [harness ~name ~subsystem] call below — the literal shape klint's
   R15 pass scans for, so a Verified registry claim with no registered
   harness is a lint violation, not a convention. *)

module Krefine = Kspec.Krefine
module Fs = Kspec.Fs_spec

type packed = Packed : (module Krefine.MACHINE with type vars = 'a) -> packed

type entry = { hname : string; subsystem : string; machine : packed }

let registered : entry list ref = ref []

let harness ~name ~subsystem machine =
  let e = { hname = name; subsystem; machine } in
  registered := !registered @ [ e ];
  e

let all () = !registered
let find name = List.find_opt (fun e -> e.hname = name) !registered
let subsystems_covered () = List.sort_uniq String.compare (List.map (fun e -> e.subsystem) !registered)

let run ?config (e : entry) trace =
  let (Packed (module M)) = e.machine in
  Krefine.run ?config (module M) trace

(* The hostile disk ------------------------------------------------------ *)

(* The kload device geometry: the recorded key space must fit
   payload-ceiling files with headroom, so [ENOSPC] can only mean a real
   refinement bug, never an under-provisioned harness. *)
let geometry =
  { Kfs.Journalfs.nblocks = 4096; block_size = 512; jblocks = 96; ninodes = 128 }

(* Small enough that multi-block journal transactions overflow it and
   force mid-epoch writebacks — the cache must not get to hide behind
   "everything still fits". *)
let wcache_capacity = 16

(* Every disk-backed harness runs its FS over a [Kblock.Wcache] on the raw
   device: acked writes are volatile until the FS flushes, and crash
   images are wcache residues — subsets *and reorderings* of the writes
   since the last completed barrier, materialized over a snapshot of the
   media as of the last settled epoch.

   Settling discipline: [crash_devs] folds the closed (durable) epochs
   into [media0] after each enumeration, keeping the retained window —
   and so enumeration cost — proportional to the crash cadence.  [settle]
   must also run *before* an [Fsync] is applied: the checker's
   allowed-recovery frontier resets at [Fsync], so crash instants from
   before the fsync stop being representable at later crash points; the
   fsync's own barrier epochs stay in the window and are exactly the
   images that convict a missing-barrier journal. *)
module Wdisk = struct
  type t = {
    dev : Kblock.Blockdev.t;
    wc : Kblock.Wcache.t;
    media0 : Kblock.Media.t; (* media as of the last settled epoch *)
  }

  let fresh_dev () =
    Kblock.Blockdev.create ~nblocks:geometry.Kfs.Journalfs.nblocks
      ~block_size:geometry.Kfs.Journalfs.block_size

  let wcache_over dev =
    Kblock.Wcache.create ~name:"wcache" ~capacity:wcache_capacity ~seed:1
      (Kblock.Blockdev.io dev)

  let apply_entry media (e : Kblock.Wcache.entry) = Kblock.Media.set media e.blkno e.data

  let settle d = List.iter (apply_entry d.media0) (Kblock.Wcache.take_durable d.wc)

  (* [wc] over [dev], its closed epochs folded away, media snapshotted. *)
  let settled dev wc =
    let (_ : Kblock.Wcache.entry list) = Kblock.Wcache.take_durable wc in
    { dev; wc; media0 = Kblock.Blockdev.snapshot_media dev }

  (* Wrap an existing device (a crash image) behind a fresh cold cache. *)
  let of_dev dev = settled dev (wcache_over dev)

  (* Materialize post-crash devices: one per sampled residue, each a
     fresh device whose media is a copy-on-write copy of [media0] (one
     pointer per 64-block chunk) plus the residue's writes in residue
     order, which copy only the chunks they touch.  Folds the durable
     epochs afterwards. *)
  let crash_devs d ~limit =
    let devs =
      Kblock.Wcache.crash_residues d.wc ~limit
      |> List.map (fun residue ->
             let media = Kblock.Media.copy d.media0 in
             List.iter (apply_entry media) residue;
             Kblock.Blockdev.of_media ~block_size:geometry.Kfs.Journalfs.block_size media)
    in
    settle d;
    devs
end

(* Journalfs as an IOSystem ---------------------------------------------- *)

module Journalfs_prog_gen (B : sig
  val name : string
  val barriers : bool
end) =
struct
  type program = Kfs.Journalfs.t
  type disk = Wdisk.t

  let name = B.name

  let init () =
    let dev = Wdisk.fresh_dev () in
    let wc = Wdisk.wcache_over dev in
    let fs =
      Kfs.Journalfs.mkfs_on ~geometry ~barriers:B.barriers ~io:(Kblock.Wcache.io wc)
        Kfs.Journalfs.Journaled dev
    in
    (fs, Wdisk.settled dev wc)

  let step fs (d : disk) op =
    (match op with Fs.Fsync -> Wdisk.settle d | _ -> ());
    Kfs.Journalfs.apply fs op

  let interp fs _d = Kfs.Journalfs.interpret fs

  let inv fs (d : disk) =
    (not (Kfs.Journalfs.is_corrupt fs))
    && (not (Kfs.Journalfs.is_readonly fs))
    && Fs.wf (Kfs.Journalfs.interpret fs)
    (* barrier discipline is part of the invariant: the FS must never
       derive new writes from data it has not flushed *)
    && Kblock.Wcache.ordering_violations d.Wdisk.wc = 0

  let crash_disks d ~limit = List.map Wdisk.of_dev (Wdisk.crash_devs d ~limit)

  let recover (d : disk) =
    ( Kfs.Journalfs.mount ~geometry ~barriers:B.barriers ~io:(Kblock.Wcache.io d.Wdisk.wc)
        Kfs.Journalfs.Journaled d.Wdisk.dev,
      d )
end

module Journalfs_prog = Journalfs_prog_gen (struct
  let name = "journalfs"
  let barriers = true
end)

module Journalfs_machine = Krefine.Io_system (Journalfs_prog)

(* The seeded missing-barrier mutant: the commit record flushes with its
   data blocks and the checkpoint superblock with its home writes (one
   barrier per logical op).  Under the write-back cache a crash can then
   tear a checkpoint — some home blocks plus the advanced superblock land
   while the rest vanish with replay disabled.  Not registered: it exists
   for the refinement checker to convict. *)
let journalfs_missing_barrier () =
  let module P = Journalfs_prog_gen (struct
    let name = "journalfs.missing-barrier"
    let barriers = false
  end) in
  Packed (module Krefine.Io_system (P))

(* Cowfs ----------------------------------------------------------------- *)

module Cowfs_machine = struct
  type vars = Kfs.Cowfs.fs

  let name = "cowfs"
  let init () = Kfs.Cowfs.mkfs ()
  let step v op = (v, Kfs.Cowfs.apply v op)
  let interp = Kfs.Cowfs.interpret
  let inv v = Fs.wf (Kfs.Cowfs.interpret v)

  (* The tree is a persistent value: there is no volatile/durable split
     to crash across — no block device, so no write-back cache either —
     and crash checking is vacuous by construction. *)
  let crash_images _ ~limit:_ = []
end

(* Supervised microreboot ------------------------------------------------ *)

let panic_cadence = 64

(* The kload supervisor policy: a budget that cannot exhaust (a [Failed]
   mount is a degraded-mode study, not a refinement subject) and the
   default backoff curve, so recovery completes within a few retries. *)
let sup_policy =
  {
    Ksim.Supervisor.restart_budget = 1_000_000;
    backoff_base = 200;
    backoff_cap = 5_000;
    op_cost = 100;
  }

module Microreboot_base = struct
  type vars = {
    vfs : Kvfs.Vfs.t;
    wdisk : Wdisk.t;
    fp : Ksim.Failpoint.t;
    panic_every : int;
    mutable handle_epoch : int;  (* the epoch our "open handle" was minted at *)
    mutable ops_done : int;
    mutable panics_injected : int;
    mutable estale_remints : int;
  }

  let name = "journalfs.microreboot"

  let make ~sabotage ~panic_every () =
    let dev = Wdisk.fresh_dev () in
    let wc = Wdisk.wcache_over dev in
    let io = Kblock.Wcache.io wc in
    let fs0 = Kfs.Journalfs.mkfs_on ~geometry ~io Kfs.Journalfs.Journaled dev in
    let wdisk = Wdisk.settled dev wc in
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
    let vfs = Kvfs.Vfs.create () in
    let wrap fs =
      Kvfs.Iface.panicky ~site:"dur.panic" ~fp
        (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs)
    in
    let remake () =
      if sabotage then begin
        (* The seeded replay-skip fault: zero the journal record blocks
           (the header survives), so the recovery scan finds only torn
           records and silently replays nothing.  Committed-but-
           unfsynced operations vanish — the lockstep check must see the
           state regress across the microreboot. *)
        let zero = Bytes.make geometry.Kfs.Journalfs.block_size '\000' in
        for b = 1 to geometry.Kfs.Journalfs.jblocks - 1 do
          let (_ : unit Ksim.Errno.r) = Kblock.Blockdev.write dev b zero in
          ()
        done;
        let (_ : unit Ksim.Errno.r) = io.Kblock.Io.flush () in
        ()
      end;
      (* A microreboot restarts the module, not the disk: the write cache
         survives.  Mount parses via direct device reads, so drain the
         cache first — equivalent to reading through it. *)
      let (_ : unit Ksim.Errno.r) = io.Kblock.Io.flush () in
      wrap (Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled dev)
    in
    (match Kvfs.Vfs.mount vfs ~at:[] ~remake ~policy:sup_policy (wrap fs0) with
    | Ok () -> ()
    | Error _ -> invalid_arg "Kharness.Microreboot: root mount failed");
    {
      vfs;
      wdisk;
      fp;
      panic_every;
      handle_epoch = Kvfs.Vfs.epoch_at vfs [];
      ops_done = 0;
      panics_injected = 0;
      estale_remints = 0;
    }

  (* The tenant retry discipline from the load harness: EIO is a
     contained oops (there is no other EIO source here — the device is
     fault-free), EINTR is the quiesce window (each retry advances the
     supervisor clock towards its backoff deadline), ESTALE means our
     handle's generation died with the old instance, so re-mint it at
     the current epoch and retry.  The op itself is applied at most once:
     the panic fires before the module delegates.

     The retry budget must outlast the worst quiesce window: backoff is
     capped at [backoff_cap] ns and the clock advances [op_cost] ns per
     call, so [backoff_cap / op_cost] (= 50) retries always reach the
     deadline; the rest is slack for the ESTALE re-mint round-trip. *)
  let retry_budget = (sup_policy.Ksim.Supervisor.backoff_cap / sup_policy.Ksim.Supervisor.op_cost) + 10

  let step v op =
    (match op with Fs.Fsync -> Wdisk.settle v.wdisk | _ -> ());
    v.ops_done <- v.ops_done + 1;
    if v.ops_done mod v.panic_every = 0 then begin
      v.panics_injected <- v.panics_injected + 1;
      Ksim.Failpoint.configure v.fp "dur.panic" ~enabled:true ~probability:1.0 ~interval:1
        ~times:1 ()
    end;
    let rec go tries =
      match Kvfs.Vfs.apply_stamped v.vfs ~epoch:v.handle_epoch op with
      | Error Ksim.Errno.ESTALE when tries > 0 ->
          v.estale_remints <- v.estale_remints + 1;
          v.handle_epoch <- Kvfs.Vfs.epoch_at v.vfs [];
          go (tries - 1)
      | Error (Ksim.Errno.EINTR | Ksim.Errno.EIO) when tries > 0 -> go (tries - 1)
      | r -> r
    in
    (v, go retry_budget)

  let interp v = Kvfs.Vfs.interpret v.vfs
  let inv v = Fs.wf (Kvfs.Vfs.interpret v.vfs) && Kblock.Wcache.ordering_violations v.wdisk.Wdisk.wc = 0

  (* A device crash strikes the whole stack: enumerate cache-loss residues
     of the hostile disk, then bring each image up the way a reboot
     would — a fresh supervised mount (over a cold cache) whose first act
     is journal replay. *)
  let remount_over (wdisk : Wdisk.t) =
    let io = Kblock.Wcache.io wdisk.Wdisk.wc in
    let fp = Ksim.Failpoint.create ~trace:(Ksim.Ktrace.create ()) ~seed:1 () in
    let vfs = Kvfs.Vfs.create () in
    let wrap fs =
      Kvfs.Iface.panicky ~site:"dur.panic" ~fp
        (Kvfs.Iface.instance (module Kfs.Journalfs.Journaled_fs) fs)
    in
    let remake () =
      let (_ : unit Ksim.Errno.r) = io.Kblock.Io.flush () in
      wrap (Kfs.Journalfs.mount ~geometry ~io Kfs.Journalfs.Journaled wdisk.Wdisk.dev)
    in
    (match Kvfs.Vfs.mount vfs ~at:[] ~remake ~policy:sup_policy (remake ()) with
    | Ok () -> ()
    | Error _ -> invalid_arg "Kharness.Microreboot: crash remount failed");
    {
      vfs;
      wdisk;
      fp;
      panic_every = max_int;
      handle_epoch = Kvfs.Vfs.epoch_at vfs [];
      ops_done = 0;
      panics_injected = 0;
      estale_remints = 0;
    }

  let crash_images v ~limit =
    List.map (fun dev -> remount_over (Wdisk.of_dev dev)) (Wdisk.crash_devs v.wdisk ~limit)
end

module Microreboot_machine = struct
  include Microreboot_base

  let init () = make ~sabotage:false ~panic_every:panic_cadence ()
end

let microreboot_sabotaged ?(panic_every = 4) () =
  let module M = struct
    include Microreboot_base

    let name = "journalfs.microreboot.replay-skip"
    let init () = make ~sabotage:true ~panic_every ()
  end in
  Packed (module M)

(* Registrations --------------------------------------------------------- *)

let journalfs = harness ~name:"journalfs" ~subsystem:"journalfs" (Packed (module Journalfs_machine))
let cowfs = harness ~name:"cowfs" ~subsystem:"cowfs" (Packed (module Cowfs_machine))

let microreboot =
  harness ~name:"journalfs.microreboot" ~subsystem:"journalfs"
    (Packed (module Microreboot_machine))

let recorded_trace ?target_ops ~seed () = Kload.Trace.record ?target_ops ~seed ()
