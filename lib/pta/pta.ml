open Pinpoint_ir
module E = Pinpoint_smt.Expr
module Lin = Pinpoint_smt.Linear_solver
module D = Pinpoint_util.Digraph
module Obs = Pinpoint_obs.Obs

type entry = { value : Stmt.operand; cond : E.t; store_sid : int }
type incoming = { ivar : Var.t; root : Var.t; depth : int }

type t = {
  func : Func.t;
  pts : (Cell.t * E.t) list Var.Tbl.t;
  load_res : (int, entry list) Hashtbl.t;
  store_tgts : (int, (Cell.t * E.t) list) Hashtbl.t;
  incomings : incoming list;
  refs : (int * int) list;
  mods : (int * int) list;
  mutable freed_cells : (Cell.t * E.t * int) list;
}

let max_depth = ref 3
let quasi_pruning = ref true

(* The linear-time filter's counts (§3.1.1), registry counters created
   when the module loads: conditional points-to entries kept and pruned
   as infeasible.  Preparation runs one task per SCC across worker
   domains; registry counters are atomic sums, exact without a lock. *)
let c_kept = Obs.counter "pta.n_kept"
let c_pruned = Obs.counter "pta.n_pruned"

(* Row-level difference propagation (DESIGN.md §4.15).  The dominant PTA
   cost is re-classifying conditional points-to rows whose condition was
   already classified: or-merged and φ-gated conditions recur across
   statements, blocks and both PTA passes of a function (and across
   functions for the ubiquitous gate shapes), and [Lin.check] is a pure
   function of the hash-consed formula, so a row whose condition id was
   seen before needs no linear solve at all — only {e changed} rows are
   reprocessed.  The memo is sharded so parallel transform tasks don't
   contend; hash-cons ids are never reused (even under the weak table's
   eviction) so a cached verdict can never be wrong, and the kept/pruned
   counters are bumped on hits exactly as on misses, so they read the
   same whether a row hits or misses, at any [--jobs]. *)
let memo_shards = 16

let memo : (int, bool) Hashtbl.t array =
  Array.init memo_shards (fun _ -> Hashtbl.create 512)

let memo_locks = Array.init memo_shards (fun _ -> Mutex.create ())
let c_row_hits = Obs.counter "pta.n_row_hits"
let c_row_misses = Obs.counter "pta.n_row_misses"

(* [Lin.check cond = Maybe], through the verdict memo. *)
let lin_feasible cond =
  let id = cond.E.id in
  let s = (id land max_int) mod memo_shards in
  let cached =
    Mutex.protect memo_locks.(s) (fun () -> Hashtbl.find_opt memo.(s) id)
  in
  match cached with
  | Some b ->
    Obs.add c_row_hits 1;
    b
  | None ->
    Obs.add c_row_misses 1;
    let b = match Lin.check cond with Lin.Unsat -> false | Lin.Maybe -> true in
    Mutex.protect memo_locks.(s) (fun () -> Hashtbl.replace memo.(s) id b);
    b

let feasible cond =
  let kept =
    if E.is_false cond then false
    else if not !quasi_pruning then
      true (* ablation mode: skip the linear-time filter entirely *)
    else lin_feasible cond
  in
  Obs.add (if kept then c_kept else c_pruned) 1;
  kept

let operand_equal a b =
  match (a, b) with
  | Stmt.Ovar x, Stmt.Ovar y -> Var.equal x y
  | Stmt.Oint x, Stmt.Oint y -> x = y
  | Stmt.Obool x, Stmt.Obool y -> x = y
  | Stmt.Onull, Stmt.Onull -> true
  | _ -> false

(* Provenance of a root variable: which access path its deref cell denotes. *)
type prov =
  | PFormal of int * int  (** (1-based param index, chain depth so far) *)
  | POpaque

(* Conditional points-to / entry lists are deduplicated with or-merged
   conditions. *)
let dedup_pts l =
  let rec insert acc (cell, cond) =
    match acc with
    | [] -> [ (cell, cond) ]
    | (c0, k0) :: rest when Cell.equal c0 cell -> (c0, E.or_ k0 cond) :: rest
    | x :: rest -> x :: insert rest (cell, cond)
  in
  List.fold_left insert [] l |> List.rev
  |> List.filter (fun (_, c) -> feasible c)

let dedup_entries l =
  let rec insert acc e =
    match acc with
    | [] -> [ e ]
    | e0 :: rest
      when e0.store_sid = e.store_sid && operand_equal e0.value e.value ->
      { e0 with cond = E.or_ e0.cond e.cond } :: rest
    | x :: rest -> x :: insert rest e
  in
  List.fold_left insert [] l |> List.rev
  |> List.filter (fun e -> feasible e.cond)

type state = entry list Cell.Map.t

type ctx = {
  f : Func.t;
  pts : (Cell.t * E.t) list Var.Tbl.t;
  load_res : (int, entry list) Hashtbl.t;
  store_tgts : (int, (Cell.t * E.t) list) Hashtbl.t;
  prov : prov Var.Tbl.t;
  mutable incomings : incoming list;
  mutable refs : (int * int) list;
  mutable mods : (int * int) list;
  mutable freed : (Cell.t * E.t * int) list;
  mutable ret_op : Stmt.operand option;
}

let add_ref ctx path = if not (List.mem path ctx.refs) then ctx.refs <- path :: ctx.refs
let add_mod ctx path = if not (List.mem path ctx.mods) then ctx.mods <- path :: ctx.mods

let prov_of ctx v =
  match Var.Tbl.find_opt ctx.prov v with Some p -> p | None -> POpaque

(* Default points-to of a variable with no definition: its own deref cell
   when it is an outside-rooted pointer. *)
let default_pts ctx (v : Var.t) =
  if Ty.is_pointer v.Var.ty then begin
    (* Register provenance lazily for undefined locals (treated opaque). *)
    if not (Var.Tbl.mem ctx.prov v) then Var.Tbl.add ctx.prov v POpaque;
    [ (Cell.CDeref v, E.tru) ]
  end
  else []

let pts_var ctx v =
  match Var.Tbl.find_opt ctx.pts v with
  | Some p -> p
  | None ->
    let p = default_pts ctx v in
    Var.Tbl.add ctx.pts v p;
    p

let pts_operand_ctx ctx = function
  | Stmt.Ovar v -> pts_var ctx v
  | Stmt.Oint _ | Stmt.Obool _ | Stmt.Onull -> []

(* Materialise the incoming value of a cell (lazily, once per cell). *)
let mat_tbl_key = function Cell.CAlloc s -> (s, true) | Cell.CDeref v -> (v.Var.vid, false)

let materialize ctx (mat : (int * bool, Var.t) Hashtbl.t) cell : Var.t option =
  match Hashtbl.find_opt mat (mat_tbl_key cell) with
  | Some v -> Some v
  | None -> (
    match cell with
    | Cell.CAlloc _ -> None (* freshly allocated memory has no incoming value *)
    | Cell.CDeref root -> (
      match Ty.deref root.Var.ty with
      | None -> None
      | Some pointee ->
        let prov, depth_ok =
          match prov_of ctx root with
          | PFormal (idx, d) ->
            if d + 1 <= !max_depth then (PFormal (idx, d + 1), true)
            else (PFormal (idx, d + 1), false)
          | POpaque -> (POpaque, true)
        in
        if not depth_ok then None
        else begin
          let name =
            Printf.sprintf "in_%s_%d" root.Var.name
              (match prov with PFormal (_, d) -> d | POpaque -> 1)
          in
          let v = Var.make ctx.f.Func.vgen name pointee in
          Hashtbl.add mat (mat_tbl_key cell) v;
          Var.Tbl.replace ctx.prov v prov;
          (match prov with
          | PFormal (idx, d) ->
            add_ref ctx (idx, d);
            ctx.incomings <- { ivar = v; root; depth = d } :: ctx.incomings
          | POpaque ->
            ctx.incomings <- { ivar = v; root; depth = 0 } :: ctx.incomings);
          Some v
        end))

(* Read a cell; if empty, try to materialise the incoming value, updating
   the state so later reads see the same variable. *)
let read_cell ctx mat (state : state ref) cell : entry list =
  match Cell.Map.find_opt cell !state with
  | Some entries when entries <> [] -> entries
  | _ -> (
    match materialize ctx mat cell with
    | None -> []
    | Some v ->
      let e = { value = Stmt.Ovar v; cond = E.tru; store_sid = -1 } in
      state := Cell.Map.add cell [ e ] !state;
      [ e ])

(* Resolve the cells denoted by [*(base, k)] in the current state. *)
let resolve_cells ctx mat state base k : (Cell.t * E.t) list =
  let rec go lvl cur =
    if lvl >= k then cur
    else begin
      let next =
        List.concat_map
          (fun (cell, c) ->
            let entries = read_cell ctx mat state cell in
            List.concat_map
              (fun e ->
                List.map
                  (fun (cell', c') -> (cell', E.conj [ c; e.cond; c' ]))
                  (pts_operand_ctx ctx e.value))
              entries)
          cur
      in
      go (lvl + 1) (dedup_pts next)
    end
  in
  go 1 (pts_operand_ctx ctx base)

let is_conduit_store value =
  match value with
  | Stmt.Ovar v -> ( match v.Var.kind with Var.Aux_formal _ -> true | _ -> false)
  | _ -> false

let run (f : Func.t) : t =
  let ctx =
    {
      f;
      pts = Var.Tbl.create 64;
      load_res = Hashtbl.create 64;
      store_tgts = Hashtbl.create 64;
      prov = Var.Tbl.create 32;
      incomings = [];
      refs = [];
      mods = [];
      freed = [];
      ret_op = None;
    }
  in
  (* Parameter provenance. *)
  List.iteri
    (fun i (p : Var.t) ->
      match p.Var.kind with
      | Var.Formal -> Var.Tbl.replace ctx.prov p (PFormal (i + 1, 0))
      | Var.Aux_formal { root; depth } ->
        (* Chain depth of the aux formal's own deref cell: *(root, depth+1). *)
        let idx =
          let rec find i = function
            | [] -> -1
            | q :: rest -> if Var.equal q root then i + 1 else find (i + 1) rest
          in
          find 0 f.Func.params
        in
        if idx > 0 then Var.Tbl.replace ctx.prov p (PFormal (idx, depth))
        else Var.Tbl.replace ctx.prov p POpaque
      | _ -> Var.Tbl.replace ctx.prov p POpaque)
    f.Func.params;
  let mat : (int * bool, Var.t) Hashtbl.t = Hashtbl.create 32 in
  let g = Func.cfg f in
  let nb = Func.n_blocks f in
  let out_states : state array = Array.make nb Cell.Map.empty in
  let topo =
    match D.topo_sort g with
    | Some o -> List.filter (fun b -> b = f.Func.entry || D.preds g b <> []) o
    | None -> invalid_arg "Pta.run: cyclic CFG (unroll loops first)"
  in
  let gates = Gating.join_gates f in
  let in_state b =
    match D.preds g b with
    | [] -> Cell.Map.empty
    | [ p ] -> out_states.(p)
    | _ ->
      (* Gate every predecessor's entries like a φ argument. *)
      let gated = gates.(b) in
      let cells =
        List.fold_left
          (fun acc (p, _) ->
            Cell.Map.fold (fun c _ acc -> Cell.Set.add c acc) out_states.(p) acc)
          Cell.Set.empty gated
      in
      Cell.Set.fold
        (fun cell acc ->
          let entries =
            List.concat_map
              (fun (p, gate) ->
                match Cell.Map.find_opt cell out_states.(p) with
                | None -> []
                | Some es ->
                  List.map (fun e -> { e with cond = E.and_ e.cond gate }) es)
              gated
          in
          match dedup_entries entries with
          | [] -> acc
          | es -> Cell.Map.add cell es acc)
        cells Cell.Map.empty
  in
  let set_pts v p = Var.Tbl.replace ctx.pts v (dedup_pts p) in
  let stored_cells = ref Cell.Set.empty in
  List.iter
    (fun bid ->
      let blk = Func.block f bid in
      let state = ref (in_state bid) in
      List.iter
        (fun (s : Stmt.t) ->
          match s.Stmt.kind with
          | Stmt.Assign (v, o) ->
            if Ty.is_pointer v.Var.ty then set_pts v (pts_operand_ctx ctx o)
          | Stmt.Phi (v, args) ->
            if Ty.is_pointer v.Var.ty then begin
              let p =
                List.concat_map
                  (fun (a : Stmt.phi_arg) ->
                    let gate = Option.value a.Stmt.gate ~default:E.tru in
                    List.map
                      (fun (c, k) -> (c, E.and_ k gate))
                      (pts_operand_ctx ctx a.Stmt.src))
                  args
              in
              set_pts v p
            end
          | Stmt.Binop (v, op, a, b) ->
            (* Pointer arithmetic: stay on the same objects. *)
            if Ty.is_pointer v.Var.ty then begin
              match op with
              | Ops.Add | Ops.Sub ->
                let pa = pts_operand_ctx ctx a and pb = pts_operand_ctx ctx b in
                set_pts v (pa @ pb)
              | _ -> set_pts v []
            end
          | Stmt.Unop (v, _, _) -> if Ty.is_pointer v.Var.ty then set_pts v []
          | Stmt.Alloc v -> set_pts v [ (Cell.CAlloc s.Stmt.sid, E.tru) ]
          | Stmt.Load (v, base, k) ->
            let cells = resolve_cells ctx mat state base k in
            let entries =
              List.concat_map
                (fun (cell, c) ->
                  let es = read_cell ctx mat state cell in
                  List.map (fun e -> { e with cond = E.and_ e.cond c }) es)
                cells
              |> dedup_entries
            in
            Hashtbl.replace ctx.load_res s.Stmt.sid entries;
            (* REF logging for formal-rooted cells happens inside
               materialisation; loads of locally-stored cells do not read
               incoming state. *)
            if Ty.is_pointer v.Var.ty then
              set_pts v
                (List.concat_map
                   (fun e ->
                     List.map
                       (fun (c, k) -> (c, E.and_ k e.cond))
                       (pts_operand_ctx ctx e.value))
                   entries)
          | Stmt.Store (base, k, value) ->
            let tgts = resolve_cells ctx mat state base k in
            Hashtbl.replace ctx.store_tgts s.Stmt.sid tgts;
            (* MOD logging and the stored-into cells (skip the conduit
               seeds themselves: they are not program stores). *)
            if not (is_conduit_store value) then
              List.iter
                (fun (cell, _) ->
                  stored_cells := Cell.Set.add cell !stored_cells;
                  match cell with
                  | Cell.CDeref root -> (
                    match prov_of ctx root with
                    | PFormal (idx, d) when d + 1 <= !max_depth ->
                      add_mod ctx (idx, d + 1)
                    | _ -> ())
                  | Cell.CAlloc _ -> ())
                tgts;
            let e cond = { value; cond; store_sid = s.Stmt.sid } in
            (match tgts with
            | [ (cell, c) ] when E.is_true c ->
              (* strong update *)
              state := Cell.Map.add cell [ e E.tru ] !state
            | _ ->
              List.iter
                (fun (cell, c) ->
                  let old = Option.value (Cell.Map.find_opt cell !state) ~default:[] in
                  state := Cell.Map.add cell (dedup_entries (e c :: old)) !state)
                tgts)
          | Stmt.Call c ->
            (* free() records the freed cells. *)
            (if c.Stmt.callee = "free" then
               match c.Stmt.args with
               | arg :: _ ->
                 let cells = pts_operand_ctx ctx arg in
                 List.iter
                   (fun (cell, k) -> ctx.freed <- (cell, k, s.Stmt.sid) :: ctx.freed)
                   cells
               | [] -> ());
            List.iter
              (fun (r : Var.t) ->
                if Ty.is_pointer r.Var.ty then begin
                  Var.Tbl.replace ctx.prov r POpaque;
                  set_pts r [ (Cell.CDeref r, E.tru) ]
                end)
              c.Stmt.recvs
          | Stmt.Return ops -> (
            match (f.Func.ret_ty, ops) with
            | Some _, o :: _ -> ctx.ret_op <- Some o
            | _ -> ()))
        blk.Func.stmts;
      out_states.(bid) <- !state)
    topo;
  (* Deep MOD paths through escaped allocations: an allocation stored into
     parameter-rooted memory makes its own cell a [*(p, d)] path — walk the
     exit-state heap from each pointer parameter and from the return value,
     logging stored-into cells at their reached depth. *)
  let exit_state = out_states.(f.Func.exit_) in
  let walk_from ~root_idx lvl1 =
    let rec bfs depth frontier visited =
      if depth > !max_depth || Cell.Set.is_empty frontier then ()
      else begin
        Cell.Set.iter
          (fun cell ->
            match cell with
            | Cell.CAlloc _ when Cell.Set.mem cell !stored_cells ->
              add_mod ctx (root_idx, depth)
            | _ -> ())
          frontier;
        let next =
          Cell.Set.fold
            (fun cell acc ->
              match Cell.Map.find_opt cell exit_state with
              | None -> acc
              | Some entries ->
                List.fold_left
                  (fun acc e ->
                    List.fold_left
                      (fun acc (c, _) -> Cell.Set.add c acc)
                      acc
                      (pts_operand_ctx ctx e.value))
                  acc entries)
            frontier Cell.Set.empty
        in
        let next = Cell.Set.diff next visited in
        bfs (depth + 1) next (Cell.Set.union visited next)
      end
    in
    bfs 1 lvl1 lvl1
  in
  List.iteri
    (fun i (p : Var.t) ->
      if p.Var.kind = Var.Formal && Ty.is_pointer p.Var.ty then begin
        let lvl1 =
          List.fold_left
            (fun acc (c, _) -> Cell.Set.add c acc)
            Cell.Set.empty (pts_var ctx p)
        in
        walk_from ~root_idx:(i + 1) lvl1
      end)
    f.Func.params;
  (* MOD paths rooted at the return value (Fig. 3's q = 0): allocation
     cells reachable from the returned pointer that were stored into. *)
  (match ctx.ret_op with
  | Some rop ->
    let lvl1 =
      List.fold_left
        (fun acc (c, _) -> Cell.Set.add c acc)
        Cell.Set.empty (pts_operand_ctx ctx rop)
    in
    walk_from ~root_idx:0 lvl1
  | None -> ());
  {
    func = f;
    pts = ctx.pts;
    load_res = ctx.load_res;
    store_tgts = ctx.store_tgts;
    incomings = List.rev ctx.incomings;
    refs = List.sort compare ctx.refs;
    mods = List.sort compare ctx.mods;
    freed_cells = ctx.freed;
  }

let pts_of (t : t) v =
  match Var.Tbl.find_opt t.pts v with Some p -> p | None -> []

let pp ppf t =
  Format.fprintf ppf "points-to for %s:@." t.func.Func.fname;
  Var.Tbl.iter
    (fun v p ->
      if p <> [] then
        Format.fprintf ppf "  %s -> {%a}@." v.Var.name
          (Pinpoint_util.Pp.list (fun ppf (c, k) ->
               Format.fprintf ppf "(%a, %a)" Cell.pp c E.pp k))
          p)
    t.pts;
  Format.fprintf ppf "  REF: %a@."
    (Pinpoint_util.Pp.list (fun ppf (i, d) -> Format.fprintf ppf "*(p%d,%d)" i d))
    t.refs;
  Format.fprintf ppf "  MOD: %a@."
    (Pinpoint_util.Pp.list (fun ppf (i, d) -> Format.fprintf ppf "*(%s,%d)" (if i = 0 then "ret" else Printf.sprintf "p%d" i) d))
    t.mods
