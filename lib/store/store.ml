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

type t = {
  dir : string;
  blob : Blob.t;
  env : Codec.env;
  index : (string, int * int) Hashtbl.t;
  seg_lru : Seg.t Resident.t;
  rv_lru : Rv.entry option array Resident.t;
  vfs : (string, Vf.t) Hashtbl.t;
      (* per-checker tables: tiny (ints only), kept resident *)
  sizes : (string, int * int) Hashtbl.t; (* fname -> (n_vertices, n_edges) *)
  mutable spills : int;
  mutable faults : int;
  mutable seg_faults : int;
  mutable evictions : int;
  mutable pub_spills : int; (* last published counter values *)
  mutable pub_faults : int;
  mutable pub_evictions : int;
  mutable pub_row_hits : int;
  mutable pub_row_misses : int;
  lock : Mutex.t;
}

let create ~dir ?(max_resident = 64) () =
  let blob = Blob.create ~dir in
  let env =
    Codec.create_env
      ~append:(fun b -> Blob.append blob b)
      ~fetch:(fun ~off ~len -> Blob.read blob ~off ~len)
  in
  {
    dir;
    blob;
    env;
    index = Hashtbl.create 1024;
    seg_lru = Resident.create ~cap:max_resident;
    rv_lru = Resident.create ~cap:max_resident;
    vfs = Hashtbl.create 4;
    sizes = Hashtbl.create 1024;
    spills = 0;
    faults = 0;
    seg_faults = 0;
    evictions = 0;
    pub_spills = 0;
    pub_faults = 0;
    pub_evictions = 0;
    pub_row_hits = 0;
    pub_row_misses = 0;
    lock = Mutex.create ();
  }

let locked t f = Mutex.protect t.lock f

let register_program t prog =
  locked t (fun () ->
      List.iter (Codec.register_func t.env) (Pinpoint_ir.Prog.functions prog))

let register_fn t f = locked t (fun () -> Codec.register_func t.env f)

(* --- unlocked internals -------------------------------------------- *)

let put_artifact t name (b : bytes) =
  let off = Blob.append t.blob b in
  Hashtbl.replace t.index name (off, Bytes.length b);
  t.spills <- t.spills + 1

let artifact t name =
  match Hashtbl.find_opt t.index name with
  | None -> None
  | Some (off, len) ->
    t.faults <- t.faults + 1;
    Some (Blob.read t.blob ~off ~len)

let evicted t l = t.evictions <- t.evictions + List.length l

let put_seg_ t fname seg =
  put_artifact t ("s/" ^ fname) (Codec.enc_seg t.env seg);
  Hashtbl.replace t.sizes fname (Seg.n_vertices seg, Seg.n_edges seg);
  evicted t (Resident.put t.seg_lru fname seg)

let seg_of_ t fname =
  match Resident.find t.seg_lru fname with
  | Some _ as r -> r
  | None -> (
    match artifact t ("s/" ^ fname) with
    | None -> None
    | Some b ->
      t.seg_faults <- t.seg_faults + 1;
      let seg = Codec.dec_seg t.env b in
      evicted t (Resident.put t.seg_lru fname seg);
      Some seg)

let put_rv_ t fname entries =
  put_artifact t ("r/" ^ fname) (Codec.enc_rv t.env fname entries);
  evicted t (Resident.put t.rv_lru fname entries)

let rv_of_ t fname =
  match Resident.find t.rv_lru fname with
  | Some _ as r -> r
  | None -> (
    match artifact t ("r/" ^ fname) with
    | None -> None
    | Some b ->
      let entries = Codec.dec_rv t.env b in
      evicted t (Resident.put t.rv_lru fname entries);
      Some entries)

(* --- public (locked) ------------------------------------------------ *)

let put_seg t fname seg = locked t (fun () -> put_seg_ t fname seg)
let seg_of t fname = locked t (fun () -> seg_of_ t fname)
let put_rv t fname entries = locked t (fun () -> put_rv_ t fname entries)
let rv_of t fname = locked t (fun () -> rv_of_ t fname)

let rv_backend t : Rv.backend =
  {
    Rv.persist = put_rv t;
    fetch = rv_of t;
    forget =
      (fun fname ->
        locked t (fun () ->
            Resident.remove t.rv_lru fname;
            Hashtbl.remove t.index ("r/" ^ fname)));
  }

let put_vf t checker vf =
  locked t (fun () ->
      put_artifact t ("v/" ^ checker) (Codec.enc_vf t.env vf);
      Hashtbl.replace t.vfs checker vf)

let vf_of t checker =
  locked t (fun () ->
      match Hashtbl.find_opt t.vfs checker with
      | Some _ as r -> r
      | None -> (
        match artifact t ("v/" ^ checker) with
        | None -> None
        | Some b ->
          let vf = Codec.dec_vf t.env b in
          Hashtbl.replace t.vfs checker vf;
          Some vf))

let remove_fn t fname =
  locked t (fun () ->
      List.iter
        (fun prefix -> Hashtbl.remove t.index (prefix ^ fname))
        [ "s/"; "r/" ];
      Resident.remove t.seg_lru fname;
      Resident.remove t.rv_lru fname;
      Hashtbl.remove t.sizes fname)

let seal t =
  locked t (fun () ->
      if not (Blob.is_sealed t.blob) then begin
        let a = Arena.create ~cap:(3 * Hashtbl.length t.index) () in
        let entries =
          Hashtbl.fold (fun name extent acc -> (name, extent) :: acc) t.index []
          |> List.sort (fun (x, _) (y, _) -> compare x y)
        in
        Arena.push_list a
          (fun (name, (off, len)) ->
            Arena.push_str a name;
            Arena.push a off;
            Arena.push a len)
          entries;
        Blob.seal t.blob ~index:(Arena.to_bytes a)
      end)

let is_sealed t = locked t (fun () -> Blob.is_sealed t.blob)
let dir t = t.dir
let file_bytes t = locked t (fun () -> Blob.size t.blob)

let seg_sizes t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ (nv, ne) (av, ae) -> (av + nv, ae + ne))
        t.sizes (0, 0))

let drop_resident t =
  locked t (fun () ->
      Resident.clear t.seg_lru;
      Resident.clear t.rv_lru;
      Hashtbl.reset t.vfs)

let resident_ t =
  Resident.length t.seg_lru + Resident.length t.rv_lru

let stats t =
  locked t (fun () ->
      {
        spills = t.spills;
        faults = t.faults;
        seg_faults = t.seg_faults;
        evictions = t.evictions;
        resident = resident_ t;
        file_bytes = Blob.size t.blob;
        row = (Codec.stats t.env).Codec.row;
        expr_hits = (Codec.stats t.env).Codec.expr_hits;
        expr_misses = (Codec.stats t.env).Codec.expr_misses;
      })

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
      let cs = Codec.stats t.env in
      let row = cs.Codec.row in
      Obs.add c_spills (t.spills - t.pub_spills);
      Obs.add c_faults (t.faults - t.pub_faults);
      Obs.add c_evictions (t.evictions - t.pub_evictions);
      Obs.add c_row_hits (row.Intern.hits - t.pub_row_hits);
      Obs.add c_row_misses (row.Intern.misses - t.pub_row_misses);
      t.pub_spills <- t.spills;
      t.pub_faults <- t.faults;
      t.pub_evictions <- t.evictions;
      t.pub_row_hits <- row.Intern.hits;
      t.pub_row_misses <- row.Intern.misses;
      Obs.set_gauge g_resident (float_of_int (resident_ t));
      Obs.set_gauge g_file_bytes (float_of_int (Blob.size t.blob));
      Obs.set_gauge g_row_bytes_saved (float_of_int row.Intern.bytes_saved);
      Obs.set_gauge g_expr_hits (float_of_int cs.Codec.expr_hits);
      Obs.set_gauge g_expr_misses (float_of_int cs.Codec.expr_misses);
      let total = row.Intern.hits + row.Intern.misses in
      Obs.set_gauge g_hit_rate
        (if total = 0 then 0.0
         else float_of_int row.Intern.hits /. float_of_int total))

let close t = locked t (fun () -> Blob.close t.blob)

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
