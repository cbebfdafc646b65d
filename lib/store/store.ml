module Obs = Pinpoint_obs.Obs
module Seg = Pinpoint_seg.Seg
module Rv = Pinpoint_summary.Rv
module Vf = Pinpoint_summary.Vf

type stats = {
  spills : int;
  faults : int;
  seg_faults : int;
  evictions : int;
  resident : int;
  file_bytes : int;
  row : Intern.stats;
  expr_hits : int;
  expr_misses : int;
}

(* What only a store with a directory has: the blob, the codec that
   writes to it, the name -> extent index and the counts of what went
   through them. *)
type disk = {
  blob : Blob.t;
  env : Codec.env;
  index : (string, int * int) Hashtbl.t;
  mutable spills : int;
  mutable faults : int;
  mutable seg_faults : int;
  mutable evictions : int;
}

type t = {
  disk : disk option;
  bounded : bool;
  seg_lru : Seg.t Resident.t;
  rv_lru : Rv.entry option array Resident.t;
  vfs : Vf.t Resident.t;
      (* per-checker tables: tiny (ints only), kept resident *)
  sizes : (string, int * int) Hashtbl.t; (* fname -> (n_vertices, n_edges) *)
  mutable published : stats; (* what [publish_obs] last counted *)
  lock : Mutex.t;
}

let no_stats =
  {
    spills = 0;
    faults = 0;
    seg_faults = 0;
    evictions = 0;
    resident = 0;
    file_bytes = 0;
    row = { Intern.hits = 0; misses = 0; bytes_saved = 0; bytes_written = 0 };
    expr_hits = 0;
    expr_misses = 0;
  }

let make ?disk max_resident =
  {
    disk;
    bounded = max_resident > 0;
    seg_lru = Resident.create ~cap:max_resident;
    rv_lru = Resident.create ~cap:max_resident;
    vfs = Resident.create ~cap:0;
    sizes = Hashtbl.create 1024;
    published = no_stats;
    lock = Mutex.create ();
  }

let memory () = make 0

let create ~dir ?(max_resident = 64) () =
  let blob = Blob.create ~dir in
  let env =
    Codec.create_env
      ~append:(fun b -> Blob.append blob b)
      ~fetch:(fun ~off ~len -> Blob.read blob ~off ~len)
  in
  make
    ~disk:
      {
        blob;
        env;
        index = Hashtbl.create 1024;
        spills = 0;
        faults = 0;
        seg_faults = 0;
        evictions = 0;
      }
    max_resident

let locked t f = Mutex.protect t.lock f
let bounded t = t.bounded

let register_program t prog =
  locked t (fun () ->
      Option.iter
        (fun d ->
          List.iter (Codec.register_func d.env) (Pinpoint_ir.Prog.functions prog))
        t.disk)

let register_fn t f =
  locked t (fun () -> Option.iter (fun d -> Codec.register_func d.env f) t.disk)

(* --- unlocked internals -------------------------------------------- *)

let spill t name encode =
  Option.iter
    (fun d ->
      let b = encode d.env in
      let off = Blob.append d.blob b in
      Hashtbl.replace d.index name (off, Bytes.length b);
      d.spills <- d.spills + 1)
    t.disk

let keep t lru name v =
  let evicted = Resident.put lru name v in
  Option.iter
    (fun d -> d.evictions <- d.evictions + List.length evicted)
    t.disk

(* The resident copy, or else the artifact decoded from the blob and
   made resident; a memory store holds every artifact resident. *)
let read t lru name key decode =
  match Resident.find lru name with
  | Some _ as r -> r
  | None ->
    Option.bind t.disk (fun d ->
        Option.map
          (fun (off, len) ->
            d.faults <- d.faults + 1;
            let v = decode d (Blob.read d.blob ~off ~len) in
            keep t lru name v;
            v)
          (Hashtbl.find_opt d.index key))

let forget t key = Option.iter (fun d -> Hashtbl.remove d.index key) t.disk

(* --- public (locked) ------------------------------------------------ *)

let put_seg t fname seg =
  locked t (fun () ->
      spill t ("s/" ^ fname) (fun env -> Codec.enc_seg env seg);
      Hashtbl.replace t.sizes fname (Seg.n_vertices seg, Seg.n_edges seg);
      keep t t.seg_lru fname seg)

let seg_of t fname =
  locked t (fun () ->
      read t t.seg_lru fname ("s/" ^ fname) (fun d b ->
          d.seg_faults <- d.seg_faults + 1;
          Codec.dec_seg d.env b))

let put_rv t fname entries =
  locked t (fun () ->
      spill t ("r/" ^ fname) (fun env -> Codec.enc_rv env fname entries);
      keep t t.rv_lru fname entries)

let rv_of t fname =
  locked t (fun () ->
      read t t.rv_lru fname ("r/" ^ fname) (fun d b -> Codec.dec_rv d.env b))

let put_vf t checker vf =
  locked t (fun () ->
      spill t ("v/" ^ checker) (fun env -> Codec.enc_vf env vf);
      keep t t.vfs checker vf)

let vf_of t checker =
  locked t (fun () ->
      read t t.vfs checker ("v/" ^ checker) (fun d b -> Codec.dec_vf d.env b))

let remove_rv t fname =
  locked t (fun () ->
      forget t ("r/" ^ fname);
      Resident.remove t.rv_lru fname)

let remove_fn t fname =
  locked t (fun () ->
      forget t ("s/" ^ fname);
      forget t ("r/" ^ fname);
      Resident.remove t.seg_lru fname;
      Resident.remove t.rv_lru fname;
      Hashtbl.remove t.sizes fname)

let seal t =
  locked t (fun () ->
      Option.iter
        (fun d ->
          if not (Blob.is_sealed d.blob) then begin
            let a = Arena.create ~cap:(3 * Hashtbl.length d.index) () in
            let entries =
              Hashtbl.fold (fun name extent acc -> (name, extent) :: acc) d.index []
              |> List.sort (fun (x, _) (y, _) -> compare x y)
            in
            Arena.push_list a
              (fun (name, (off, len)) ->
                Arena.push_str a name;
                Arena.push a off;
                Arena.push a len)
              entries;
            Blob.seal d.blob ~index:(Arena.to_bytes a)
          end)
        t.disk)

let is_sealed t =
  locked t (fun () ->
      match t.disk with Some d -> Blob.is_sealed d.blob | None -> false)

let seg_sizes t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ (nv, ne) (av, ae) -> (av + nv, ae + ne))
        t.sizes (0, 0))

let drop_resident t =
  locked t (fun () ->
      Option.iter
        (fun _ ->
          Resident.clear t.seg_lru;
          Resident.clear t.rv_lru;
          Resident.clear t.vfs)
        t.disk)

let stats_ t =
  let resident = Resident.length t.seg_lru + Resident.length t.rv_lru in
  match t.disk with
  | None -> { no_stats with resident }
  | Some d ->
    let cs = Codec.stats d.env in
    {
      spills = d.spills;
      faults = d.faults;
      seg_faults = d.seg_faults;
      evictions = d.evictions;
      resident;
      file_bytes = Blob.size d.blob;
      row = cs.Codec.row;
      expr_hits = cs.Codec.expr_hits;
      expr_misses = cs.Codec.expr_misses;
    }

let stats t = locked t (fun () -> stats_ t)

let c_spills = Obs.counter "store.spills"
let c_faults = Obs.counter "store.faults"
let c_evictions = Obs.counter "store.evictions"
let c_row_hits = Obs.counter "store.dedup.row_hits"
let c_row_misses = Obs.counter "store.dedup.row_misses"
let g_resident = Obs.gauge "store.resident_fns"
let g_file_bytes = Obs.gauge "store.file_bytes"
let g_hit_rate = Obs.gauge "store.dedup_hit_rate"
let g_row_bytes_saved = Obs.gauge "store.dedup.row_bytes_saved"
let g_expr_hits = Obs.gauge "store.dedup.expr_hits"
let g_expr_misses = Obs.gauge "store.dedup.expr_misses"

let publish_obs t =
  locked t (fun () ->
      let s = stats_ t and p = t.published in
      Obs.add c_spills (s.spills - p.spills);
      Obs.add c_faults (s.faults - p.faults);
      Obs.add c_evictions (s.evictions - p.evictions);
      Obs.add c_row_hits (s.row.Intern.hits - p.row.Intern.hits);
      Obs.add c_row_misses (s.row.Intern.misses - p.row.Intern.misses);
      t.published <- s;
      Obs.set_gauge g_resident (float_of_int s.resident);
      Obs.set_gauge g_file_bytes (float_of_int s.file_bytes);
      Obs.set_gauge g_row_bytes_saved (float_of_int s.row.Intern.bytes_saved);
      Obs.set_gauge g_expr_hits (float_of_int s.expr_hits);
      Obs.set_gauge g_expr_misses (float_of_int s.expr_misses);
      let total = s.row.Intern.hits + s.row.Intern.misses in
      Obs.set_gauge g_hit_rate
        (if total = 0 then 0.0
         else float_of_int s.row.Intern.hits /. float_of_int total))

let close t = locked t (fun () -> Option.iter (fun d -> Blob.close d.blob) t.disk)

type reopened = {
  epoch : int;
  artifacts : (string * (int * int)) list;
  read : off:int -> len:int -> bytes;
  finish : unit -> unit;
}

let reopen ~dir =
  match Blob.open_latest ~dir with
  | None -> None
  | Some blob -> (
    match Blob.index blob with
    | None ->
      Blob.close blob;
      None
    | Some idx ->
      let c = Arena.of_bytes idx in
      let artifacts =
        Arena.read_list c (fun c ->
            let name = Arena.read_str c in
            let off = Arena.read c in
            let len = Arena.read c in
            (name, (off, len)))
      in
      Some
        {
          epoch = Blob.epoch blob;
          artifacts;
          read = (fun ~off ~len -> Blob.read blob ~off ~len);
          finish = (fun () -> Blob.close blob);
        })
