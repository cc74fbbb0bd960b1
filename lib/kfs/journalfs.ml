(* A block-based file system with a write-ahead journal: the ext4-shaped
   subject of the crash-safety experiment.

   On-disk layout (block numbers):

     0 .. jblocks-1              journal (see [Kblock.Journal])
     jblocks                     fs superblock
     jblocks+1 .. +ninodes       inode table, one inode per block
     jblocks+ninodes+1           data-area allocation bitmap
     everything after            data blocks

   Every operation mutates an in-memory mirror and stages the changed
   blocks (data, inode table, bitmap) into one journal transaction, so a
   crash either sees the whole operation or none of it.  [mode = Direct]
   is the ablation: the same block writes issued in place with no journal
   and no ordering, i.e. the classic non-journaled Unix FS that the crash
   checker duly convicts.

   All media traffic goes through a [Kblock.Io.t] (by default the raw
   device), so the FS can be mounted over a flaky/resilient stack.  When
   an EIO survives to this layer — i.e. the retry budget below us is
   exhausted, a *persistent* failure — the op aborts (the journal rolls
   the partial transaction back) and the FS degrades ext4-style to
   errors=remount-ro: every subsequent mutation fails EROFS, reads keep
   working from the mirror, and the incident lands on the global trace
   for [Safeos_core.Audit] to pick up. *)

open Kspec

type mode =
  | Journaled
  | Direct

type mnode =
  | MFile of string
  | MDir of (string * int) list (* sorted by name *)

type geometry = {
  nblocks : int;
  block_size : int;
  jblocks : int;
  ninodes : int;
}

let default_geometry = { nblocks = 1024; block_size = 512; jblocks = 96; ninodes = 64 }

type t = {
  geo : geometry;
  dev : Kblock.Blockdev.t;
  io : Kblock.Io.t; (* all media traffic; may be a flaky/resilient stack *)
  journal : Kblock.Journal.t option; (* None in Direct mode *)
  mode : mode;
  group_commit : bool; (* accumulate ops into one tx until fsync *)
  barriers : bool; (* false = missing-barrier mutant journal (convict me) *)
  mutable open_tx : Kblock.Journal.tx option;
  nodes : mnode option array; (* the mirror; index = ino *)
  bitmap : Bytes.t; (* one byte per data block: 0 free, 1 used *)
  blocks_of : int list array; (* data blocks backing each inode *)
  mutable corrupt : bool; (* set when mount could not parse the disk *)
  mutable readonly : bool; (* errors=remount-ro tripped *)
}

let fs_magic = 0x46533231 (* "FS21" *)
let root_ino = 0

let sb_block geo = geo.jblocks
let inode_block geo ino = geo.jblocks + 1 + ino
let bitmap_block geo = geo.jblocks + 1 + geo.ninodes
let data_start geo = bitmap_block geo + 1
let data_blocks geo = geo.nblocks - data_start geo

let mode t = t.mode
let device t = t.dev
let journal_stats t = Option.map Kblock.Journal.stats t.journal
let is_corrupt t = t.corrupt
let is_readonly t = t.readonly

(* Graceful degradation: an EIO that survives to this layer means the
   retry budget below us (if any) is exhausted — a persistent media
   failure.  The op already aborted cleanly (journal head rolled back),
   so we pin the FS read-only rather than risk corrupting the disk with
   further writes, and leave an incident on the global trace for
   [Safeos_core.Audit]. *)
let degrade t reason =
  if not t.readonly then begin
    t.readonly <- true;
    Ksim.Ktrace.emitf Ksim.Ktrace.global ~category:"incident" "journalfs: remount-ro: %s" reason
  end

let absorb t what (r : 'a Ksim.Errno.r) : 'a Ksim.Errno.r =
  (match r with
  | Error Ksim.Errno.EIO -> degrade t (what ^ ": persistent EIO")
  | Ok _ | Error _ -> ());
  r

(* Encoding ---------------------------------------------------------------- *)

let encode_dir entries =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_le buf (List.length entries);
  List.iter
    (fun (name, ino) ->
      Buffer.add_uint16_le buf (String.length name);
      Buffer.add_string buf name;
      Buffer.add_int32_le buf (Int32.of_int ino))
    entries;
  Buffer.contents buf

exception Corrupt of string

let decode_dir s =
  let get_u16 off =
    if off + 2 > String.length s then raise (Corrupt "dir: truncated u16")
    else Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)
  in
  let count = if String.length s < 2 then raise (Corrupt "dir: no count") else get_u16 0 in
  let rec go i off acc =
    if i = count then List.rev acc
    else begin
      let len = get_u16 off in
      if off + 2 + len + 4 > String.length s then raise (Corrupt "dir: truncated entry");
      let name = String.sub s (off + 2) len in
      let b k = Char.code s.[off + 2 + len + k] in
      let ino = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
      go (i + 1) (off + 2 + len + 4) ((name, ino) :: acc)
    end
  in
  go 0 2 []

let content_of_node = function
  | MFile content -> content
  | MDir entries -> encode_dir entries

let encode_inode geo node blocks =
  let buf = Bytes.make geo.block_size '\000' in
  (match node with
  | None -> ()
  | Some n ->
      Bytes.set buf 0 '\001';
      Bytes.set buf 1 (match n with MFile _ -> '\000' | MDir _ -> '\001');
      let content = content_of_node n in
      Kblock.Codec.put_u32 buf 2 (String.length content);
      Kblock.Codec.put_u16 buf 6 (List.length blocks);
      List.iteri (fun i blkno -> Kblock.Codec.put_u32 buf (8 + (4 * i)) blkno) blocks);
  buf

let max_direct geo = (geo.block_size - 8) / 4
let max_file_size geo = max_direct geo * geo.block_size

(* Staging ------------------------------------------------------------------ *)

(* A pending batch of whole-block writes, applied either through the
   journal (one atomic transaction) or directly, depending on mode. *)
type batch = (int, bytes) Hashtbl.t

let batch_create () : batch = Hashtbl.create 16

let batch_put (b : batch) blkno data = Hashtbl.replace b blkno data

let stage_into_tx j tx blocks =
  List.fold_left
    (fun acc (blkno, data) ->
      match acc with
      | Error _ as e -> e
      | Ok () -> Kblock.Journal.tx_write j tx ~blkno data)
    (Ok ()) blocks

(** Close the accumulating transaction (group-commit mode): make
    everything staged so far durable.  A crash before this point legally
    loses the whole batch — still a prefix of the history.  Note [apply]
    itself carries no such contract: [Ok] from a mutating op only
    promises durability after [Fsync], the POSIX bargain, so Direct-mode
    staging writes may legally remain cache-volatile between syncs.
    @durable *)
let commit_open_tx t =
  match (t.journal, t.open_tx) with
  | Some j, Some tx ->
      t.open_tx <- None;
      (match Kblock.Journal.commit j tx with
      | Ok () -> Ok ()
      | Error Ksim.Errno.EOVERFLOW -> Error Ksim.Errno.ENOSPC
      | Error e -> Error e)
  | _, _ -> Ok ()

let batch_apply t (b : batch) =
  let blocks = Hashtbl.fold (fun blkno data acc -> (blkno, data) :: acc) b [] in
  let blocks = List.sort (fun (a, _) (b, _) -> compare a b) blocks in
  match t.journal with
  | Some j when t.group_commit ->
      (* Accumulate into the open transaction; commit early only when the
         next batch would overflow the per-transaction capacity. *)
      let tx_writes tx = Kblock.Journal.tx_size tx in
      let need = List.length blocks in
      let ( let* ) = Result.bind in
      let* () =
        match t.open_tx with
        | Some tx when tx_writes tx + need > Kblock.Journal.max_tx_writes j ->
            commit_open_tx t
        | _ -> Ok ()
      in
      let tx =
        match t.open_tx with
        | Some tx -> tx
        | None ->
            let tx = Kblock.Journal.tx_begin j in
            t.open_tx <- Some tx;
            tx
      in
      stage_into_tx j tx blocks
  | Some j -> (
      (* One transaction per batch.  The tx is owned from tx_begin on:
         every path below must hand it back to commit or abort — a
         staging failure that just dropped it was an R10 leak. *)
      let tx = Kblock.Journal.tx_begin j in
      match stage_into_tx j tx blocks with
      | Error e ->
          Kblock.Journal.abort j tx;
          Error e
      | Ok () -> (
          match Kblock.Journal.commit j tx with
          | Ok () -> Ok ()
          | Error Ksim.Errno.EOVERFLOW -> Error Ksim.Errno.ENOSPC
          | Error e -> Error e))
  | None ->
      List.fold_left
        (fun acc (blkno, data) ->
          match acc with
          | Error _ as e -> e
          | Ok () -> t.io.Kblock.Io.write blkno data)
        (Ok ()) blocks

(* Allocation ---------------------------------------------------------------- *)

let alloc_blocks t n =
  let limit = data_blocks t.geo in
  let rec go i acc remaining =
    if remaining = 0 then Some (List.rev acc)
    else if i >= limit then None
    else if Bytes.get t.bitmap i = '\000' then go (i + 1) (i :: acc) (remaining - 1)
    else go (i + 1) acc remaining
  in
  match go 0 [] n with
  | None -> None
  | Some rel ->
      List.iter (fun i -> Bytes.set t.bitmap i '\001') rel;
      Some (List.map (fun i -> data_start t.geo + i) rel)

let free_blocks t blocks =
  List.iter (fun blkno -> Bytes.set t.bitmap (blkno - data_start t.geo) '\000') blocks

(* Re-serialize one inode: free its old data blocks, allocate fresh ones,
   stage data + inode-table + bitmap blocks.  Returns false on ENOSPC (and
   rolls the allocation back). *)
let stage_inode t (b : batch) ino =
  free_blocks t t.blocks_of.(ino);
  t.blocks_of.(ino) <- [];
  let ok =
    match t.nodes.(ino) with
    | None -> true
    | Some node -> (
        let content = content_of_node node in
        let bs = t.geo.block_size in
        let nblocks = (String.length content + bs - 1) / bs in
        if nblocks > max_direct t.geo then false
        else
          match alloc_blocks t nblocks with
          | None -> false
          | Some blocks ->
              t.blocks_of.(ino) <- blocks;
              List.iteri
                (fun i blkno ->
                  let chunk = Bytes.make bs '\000' in
                  let off = i * bs in
                  let len = min bs (String.length content - off) in
                  Bytes.blit_string content off chunk 0 len;
                  batch_put b blkno chunk)
                blocks;
              true)
  in
  if ok then begin
    batch_put b (inode_block t.geo ino) (encode_inode t.geo t.nodes.(ino) t.blocks_of.(ino));
    let bm = Bytes.make t.geo.block_size '\000' in
    Bytes.blit t.bitmap 0 bm 0 (min (Bytes.length t.bitmap) t.geo.block_size);
    batch_put b (bitmap_block t.geo) bm;
    true
  end
  else false

(* mkfs / mount --------------------------------------------------------------- *)

let write_sb t (b : batch) =
  let buf = Bytes.make t.geo.block_size '\000' in
  Kblock.Codec.put_u32 buf 0 fs_magic;
  Kblock.Codec.put_u32 buf 4 t.geo.ninodes;
  Kblock.Codec.put_u32 buf 8 t.geo.jblocks;
  batch_put b (sb_block t.geo) buf

let mkfs_on ?(geometry = default_geometry) ?(group_commit = false) ?(barriers = true) ?io
    mode dev =
  if data_blocks geometry < 8 then invalid_arg "Journalfs.mkfs_on: device too small";
  let io = match io with Some io -> io | None -> Kblock.Blockdev.io dev in
  let journal =
    match mode with
    | Journaled -> Some (Kblock.Journal.format ~barriers io ~jblocks:geometry.jblocks)
    | Direct -> None
  in
  let t =
    {
      geo = geometry;
      dev;
      io;
      journal;
      mode;
      group_commit;
      barriers;
      open_tx = None;
      nodes = Array.make geometry.ninodes None;
      bitmap = Bytes.make (data_blocks geometry) '\000';
      blocks_of = Array.make geometry.ninodes [];
      corrupt = false;
      readonly = false;
    }
  in
  t.nodes.(root_ino) <- Some (MDir []);
  let b = batch_create () in
  write_sb t b;
  (* The device is freshly zeroed, so only the root inode (and the blocks
     it owns) needs to reach the disk. *)
  if not (stage_inode t b root_ino) then invalid_arg "Journalfs.mkfs_on: no space for root";
  let fatal what = function
    | Ok () -> ()
    | Error e -> invalid_arg ("Journalfs.mkfs_on: " ^ what ^ ": " ^ Ksim.Errno.to_string e)
  in
  fatal "apply" (batch_apply t b);
  fatal "commit" (commit_open_tx t);
  (match mode with
  | Journaled -> fatal "checkpoint" (Kblock.Journal.checkpoint (Option.get journal))
  | Direct -> ());
  fatal "flush" (t.io.Kblock.Io.flush ());
  t

(* Mount parses straight from the device's shared blocks: no copies. *)
let read_block dev blkno =
  match Kblock.Blockdev.read_shared dev blkno with
  | Ok data -> data
  | Error e -> raise (Corrupt ("read: " ^ Ksim.Errno.to_string e))

let mount ?(geometry = default_geometry) ?(group_commit = false) ?(barriers = true) ?io mode
    dev =
  let io = match io with Some io -> io | None -> Kblock.Blockdev.io dev in
  let journal =
    match mode with
    | Journaled -> Some (Kblock.Journal.recover ~barriers io ~jblocks:geometry.jblocks)
    | Direct -> None
  in
  let t =
    {
      geo = geometry;
      dev;
      io;
      journal;
      mode;
      group_commit;
      barriers;
      open_tx = None;
      nodes = Array.make geometry.ninodes None;
      bitmap = Bytes.make (data_blocks geometry) '\000';
      blocks_of = Array.make geometry.ninodes [];
      corrupt = false;
      readonly = false;
    }
  in
  (try
     let sb = read_block dev (sb_block geometry) in
     if Kblock.Codec.string_get_u32 sb 0 <> fs_magic then raise (Corrupt "bad fs magic");
     for ino = 0 to geometry.ninodes - 1 do
       let buf = read_block dev (inode_block geometry ino) in
       if buf.[0] = '\001' then begin
         let kind = buf.[1] in
         let size = Kblock.Codec.string_get_u32 buf 2 in
         let nblk = Kblock.Codec.string_get_u16 buf 6 in
         if nblk > max_direct geometry then raise (Corrupt "inode block count");
         let blocks = List.init nblk (fun i -> Kblock.Codec.string_get_u32 buf (8 + (4 * i))) in
         List.iter
           (fun blkno ->
             if blkno < data_start geometry || blkno >= geometry.nblocks then
               raise (Corrupt "block pointer out of range"))
           blocks;
         let content = Buffer.create size in
         List.iter (fun blkno -> Buffer.add_string content (read_block dev blkno)) blocks;
         if size > Buffer.length content then raise (Corrupt "inode size beyond blocks");
         let content = Buffer.sub content 0 size in
         t.blocks_of.(ino) <- blocks;
         List.iter
           (fun blkno -> Bytes.set t.bitmap (blkno - data_start geometry) '\001')
           blocks;
         t.nodes.(ino) <-
           Some (if kind = '\001' then MDir (decode_dir content) else MFile content)
       end
     done;
     if t.nodes.(root_ino) = None then raise (Corrupt "no root inode")
   with Corrupt _ ->
     t.corrupt <- true;
     Array.fill t.nodes 0 geometry.ninodes None);
  t

(* Mirror navigation (same shape as the other memfs variants) ---------------- *)

let node t ino = if ino >= 0 && ino < t.geo.ninodes then t.nodes.(ino) else None

let rec walk t ino = function
  | [] -> Some ino
  | comp :: rest -> (
      match node t ino with
      | Some (MDir entries) ->
          Option.bind (List.assoc_opt comp entries) (fun child -> walk t child rest)
      | Some (MFile _) | None -> None)

let lookup t path = walk t root_ino path
let lookup_node t path = Option.bind (lookup t path) (node t)

let is_dir t path =
  match lookup_node t path with Some (MDir _) -> true | Some (MFile _) | None -> false

let parent_dir t path =
  match Fs_spec.parent path with
  | None -> Error Ksim.Errno.EINVAL
  | Some par -> (
      match lookup t par with
      | Some ino -> (
          match node t ino with
          | Some (MDir entries) -> Ok (ino, entries)
          | Some (MFile _) | None -> Error Ksim.Errno.ENOENT)
      | None -> Error Ksim.Errno.ENOENT)

let basename_exn path =
  match Fs_spec.basename path with Some name -> name | None -> assert false

let rec assoc_set name value = function
  | [] -> [ (name, value) ]
  | (n, v) :: rest ->
      let c = String.compare name n in
      if c < 0 then (name, value) :: (n, v) :: rest
      else if c = 0 then (name, value) :: rest
      else (n, v) :: assoc_set name value rest

let assoc_remove name entries = List.filter (fun (n, _) -> not (String.equal n name)) entries

let free_ino t =
  let rec go ino =
    if ino >= t.geo.ninodes then None
    else if t.nodes.(ino) = None then Some ino
    else go (ino + 1)
  in
  go 0

(* Commit a set of mirror changes: stage every touched inode, then apply
   the batch atomically.  If any staging step hits ENOSPC the mirror is
   *not* rolled back — callers must stage additions last and check.  A
   persistent EIO aborts the transaction (journal head rolled back, home
   area untouched) and degrades the FS to read-only; the mirror may now
   be ahead of the disk, which is safe precisely because nothing further
   will be written. *)
let commit_inodes t inos =
  let b = batch_create () in
  let ok = List.for_all (fun ino -> stage_inode t b ino) inos in
  if ok then
    match absorb t "commit" (batch_apply t b) with
    | Ok () -> Ok Fs_spec.Unit
    | Error e -> Error e
  else Error Ksim.Errno.ENOSPC

(* Operations ------------------------------------------------------------------ *)

let add_node t path make_node =
  match parent_dir t path with
  | Error e -> Error e
  | Ok (parent_ino, entries) -> (
      let base = basename_exn path in
      if List.mem_assoc base entries then Error Ksim.Errno.EEXIST
      else
        match free_ino t with
        | None -> Error Ksim.Errno.ENOSPC
        | Some ino ->
            t.nodes.(ino) <- Some (make_node ());
            t.nodes.(parent_ino) <- Some (MDir (assoc_set base ino entries));
            commit_inodes t [ ino; parent_ino ])

let update_file t path f =
  match lookup t path with
  | Some ino -> (
      match node t ino with
      | Some (MFile content) ->
          let content' = f content in
          if String.length content' > max_file_size t.geo then Error Ksim.Errno.ENOSPC
          else begin
            t.nodes.(ino) <- Some (MFile content');
            commit_inodes t [ ino ]
          end
      | Some (MDir _) -> Error Ksim.Errno.EISDIR
      | None -> Error Ksim.Errno.ENOENT)
  | None -> if is_dir t path then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT

let rec collect_subtree t ino acc =
  match node t ino with
  | Some (MDir entries) ->
      List.fold_left (fun acc (_, child) -> collect_subtree t child acc) (ino :: acc) entries
  | Some (MFile _) -> ino :: acc
  | None -> acc

let mutating : Fs_spec.op -> bool = function
  | Create _ | Mkdir _ | Write _ | Truncate _ | Unlink _ | Rmdir _ | Rename _ -> true
  | Read _ | Readdir _ | Stat _ | Fsync -> false

let apply t (op : Fs_spec.op) : Fs_spec.result =
  if t.corrupt then Error Ksim.Errno.EIO
  else if t.readonly && mutating op then Error Ksim.Errno.EROFS
  else
    match op with
    | Create path -> add_node t path (fun () -> MFile "")
    | Mkdir path -> add_node t path (fun () -> MDir [])
    | Write { file; off; data } ->
        if off < 0 then Error Ksim.Errno.EINVAL
        else update_file t file (fun content -> Fs_spec.write_at content ~off ~data)
    | Read { file; off; len } -> (
        if off < 0 || len < 0 then Error Ksim.Errno.EINVAL
        else
          match lookup_node t file with
          | Some (MFile content) -> Ok (Fs_spec.Data (Fs_spec.read_at content ~off ~len))
          | Some (MDir _) -> Error Ksim.Errno.EISDIR
          | None -> if is_dir t file then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Truncate (path, size) ->
        if size < 0 then Error Ksim.Errno.EINVAL
        else
          update_file t path (fun content ->
              if String.length content >= size then String.sub content 0 size
              else content ^ String.make (size - String.length content) '\000')
    | Unlink path -> (
        match lookup_node t path with
        | Some (MFile _) -> (
            match parent_dir t path with
            | Error e -> Error e
            | Ok (parent_ino, entries) ->
                let ino = match lookup t path with Some i -> i | None -> assert false in
                t.nodes.(ino) <- None;
                t.nodes.(parent_ino) <- Some (MDir (assoc_remove (basename_exn path) entries));
                commit_inodes t [ ino; parent_ino ])
        | Some (MDir _) -> Error Ksim.Errno.EISDIR
        | None -> if path = [] then Error Ksim.Errno.EISDIR else Error Ksim.Errno.ENOENT)
    | Rmdir [] -> Error Ksim.Errno.EBUSY
    | Rmdir path -> (
        match lookup_node t path with
        | Some (MDir entries) ->
            if entries <> [] then Error Ksim.Errno.ENOTEMPTY
            else (
              match parent_dir t path with
              | Error e -> Error e
              | Ok (parent_ino, pentries) ->
                  let ino = match lookup t path with Some i -> i | None -> assert false in
                  t.nodes.(ino) <- None;
                  t.nodes.(parent_ino) <-
                    Some (MDir (assoc_remove (basename_exn path) pentries));
                  commit_inodes t [ ino; parent_ino ])
        | Some (MFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Rename ([], _) -> Error Ksim.Errno.ENOENT
    | Rename (src, dst) -> (
        match lookup t src with
        | None -> Error Ksim.Errno.ENOENT
        | Some src_ino -> (
            if dst = [] then Error Ksim.Errno.EINVAL
            else if Fs_spec.is_prefix src dst && src <> dst then Error Ksim.Errno.EINVAL
            else
              match parent_dir t dst with
              | Error e -> Error e
              | Ok (dst_parent, _) -> (
                  let clash =
                    match (node t src_ino, lookup_node t dst) with
                    | _, None -> Ok ()
                    | Some (MFile _), Some (MFile _) -> Ok ()
                    | Some (MFile _), Some (MDir _) -> Error Ksim.Errno.EISDIR
                    | Some (MDir _), Some (MFile _) -> Error Ksim.Errno.ENOTDIR
                    | Some (MDir _), Some (MDir d) ->
                        if d = [] then Ok () else Error Ksim.Errno.ENOTEMPTY
                    | None, _ -> Error Ksim.Errno.ENOENT
                  in
                  match clash with
                  | Error e -> Error e
                  | Ok () ->
                      if src = dst then Ok Fs_spec.Unit
                      else begin
                        let dropped =
                          match lookup t dst with
                          | Some old_ino when old_ino <> src_ino ->
                              let doomed = collect_subtree t old_ino [] in
                              List.iter (fun i -> t.nodes.(i) <- None) doomed;
                              doomed
                          | Some _ | None -> []
                        in
                        let touched = ref (dropped @ [ dst_parent ]) in
                        (match parent_dir t src with
                        | Ok (src_parent, src_entries) ->
                            t.nodes.(src_parent) <-
                              Some (MDir (assoc_remove (basename_exn src) src_entries));
                            touched := src_parent :: !touched
                        | Error _ -> ());
                        (* Re-read the destination directory: it may be the
                           same inode we just updated as the source parent. *)
                        (match node t dst_parent with
                        | Some (MDir entries) ->
                            t.nodes.(dst_parent) <-
                              Some (MDir (assoc_set (basename_exn dst) src_ino entries))
                        | Some (MFile _) | None -> ());
                        commit_inodes t (List.sort_uniq compare !touched)
                      end)))
    | Readdir path -> (
        match lookup_node t path with
        | Some (MDir entries) -> Ok (Fs_spec.Names (List.map fst entries))
        | Some (MFile _) -> Error Ksim.Errno.ENOTDIR
        | None -> Error Ksim.Errno.ENOENT)
    | Stat path -> (
        match lookup_node t path with
        | Some (MFile content) -> Ok (Fs_spec.Attr { kind = `File; size = String.length content })
        | Some (MDir _) -> Ok (Fs_spec.Attr { kind = `Dir; size = 0 })
        | None -> Error Ksim.Errno.ENOENT)
    | Fsync ->
        if t.readonly then Ok Fs_spec.Unit (* nothing dirty will ever flush *)
        else (
          match absorb t "fsync commit" (commit_open_tx t) with
          | Error e -> Error e
          | Ok () -> (
              let r =
                match t.journal with
                | Some j -> Kblock.Journal.checkpoint j
                | None -> t.io.Kblock.Io.flush ()
              in
              match absorb t "fsync" r with Ok () -> Ok Fs_spec.Unit | Error e -> Error e))

let interpret t : Fs_spec.state =
  let rec go ino rel acc =
    match node t ino with
    | Some (MDir entries) ->
        let acc = if rel = [] then acc else Fs_spec.Pathmap.add rel Fs_spec.Dir acc in
        List.fold_left (fun acc (name, child) -> go child (rel @ [ name ]) acc) acc entries
    | Some (MFile content) -> Fs_spec.Pathmap.add rel (Fs_spec.File content) acc
    | None -> acc
  in
  go root_ino [] Fs_spec.empty

(* Crash exploration: every device image a crash could leave, remounted. *)
let crash_images t ~limit =
  Kblock.Blockdev.crash_states t.dev ~limit
  |> List.map (fun dev ->
         mount ~geometry:t.geo ~group_commit:t.group_commit ~barriers:t.barriers t.mode dev)

(* Mountable / crashable adapters --------------------------------------------- *)

module Journaled_fs = struct
  type nonrec fs = t

  let fs_name = "journalfs"
  let stage = 2
  let mkfs () = mkfs_on Journaled (Kblock.Blockdev.create ~nblocks:default_geometry.nblocks ~block_size:default_geometry.block_size)
  let apply = apply
  let interpret = interpret
end

module Journaled_group_fs = struct
  type nonrec fs = t

  let fs_name = "journalfs+group-commit"
  let stage = 2

  let mkfs () =
    mkfs_on ~group_commit:true Journaled
      (Kblock.Blockdev.create ~nblocks:default_geometry.nblocks
         ~block_size:default_geometry.block_size)

  let apply = apply
  let interpret = interpret
end

module Crashable_journaled_group = struct
  type nonrec t = t

  let name = "journalfs+group-commit"
  let create () = Journaled_group_fs.mkfs ()
  let apply = apply
  let crash_images = crash_images
  let interpret = interpret
end

module Direct_fs = struct
  type nonrec fs = t

  let fs_name = "directfs"
  let stage = 2
  let mkfs () = mkfs_on Direct (Kblock.Blockdev.create ~nblocks:default_geometry.nblocks ~block_size:default_geometry.block_size)
  let apply = apply
  let interpret = interpret
end

module Crashable_journaled = struct
  type nonrec t = t

  let name = "journalfs"
  let create () = Journaled_fs.mkfs ()
  let apply = apply
  let crash_images = crash_images
  let interpret = interpret
end

module Crashable_direct = struct
  type nonrec t = t

  let name = "directfs"
  let create () = Direct_fs.mkfs ()
  let apply = apply
  let crash_images = crash_images
  let interpret = interpret
end
