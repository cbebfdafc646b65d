open Pinpoint_ir
module Metrics = Pinpoint_util.Metrics
module Wavefront = Pinpoint_pta.Wavefront

(* Shared with the wavefront solver, so constraint generation here and
   solving there exchange sets without conversion. *)
module ISet = Wavefront.ISet

(* Node space: dense ints.
   - one node per (function, variable)
   - one node per object's content cell
   - synthetic chain nodes for multi-level accesses
   Objects are also ints (indices into [objects]). *)

type t = {
  var_node : (string * int, int) Hashtbl.t;
  mutable n_nodes : int;
  mutable pts : ISet.t array;       (* node -> object ids *)
  mutable copy : ISet.t array;      (* node -> successor nodes *)
  mutable loads : (int * int) list array;  (* p-node -> (dst, 1) pending *)
  mutable stores : (int * int) list array; (* p-node -> (src, 1) pending *)
  mutable obj_mem : int array;      (* object id -> content node *)
  mutable n_objects : int;
  u_obj : int;
  mutable iterations : int;
  mutable timed_out : bool;
}

let ensure_node t n =
  if n >= Array.length t.pts then begin
    let cap = max (n + 1) (2 * Array.length t.pts) in
    let grow a d =
      let a' = Array.make cap d in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    t.pts <- grow t.pts ISet.empty;
    t.copy <- grow t.copy ISet.empty;
    t.loads <- grow t.loads [];
    t.stores <- grow t.stores []
  end;
  if n >= t.n_nodes then t.n_nodes <- n + 1

let fresh_node t =
  let n = t.n_nodes in
  ensure_node t n;
  n

let fresh_object t =
  let o = t.n_objects in
  t.n_objects <- o + 1;
  let mem = fresh_node t in
  if o >= Array.length t.obj_mem then begin
    let a = Array.make (max (o + 1) (2 * Array.length t.obj_mem)) (-1) in
    Array.blit t.obj_mem 0 a 0 (Array.length t.obj_mem);
    t.obj_mem <- a
  end;
  t.obj_mem.(o) <- mem;
  o

let node_of t fname (v : Var.t) =
  let key = (fname, v.Var.vid) in
  match Hashtbl.find_opt t.var_node key with
  | Some n -> n
  | None ->
    let n = fresh_node t in
    Hashtbl.add t.var_node key n;
    n

let node_of_var t fname v =
  Hashtbl.find_opt t.var_node (fname, v.Var.vid)

let pts t n = if n < t.n_nodes then t.pts.(n) else ISet.empty
let universal t = t.u_obj
let n_nodes t = t.n_nodes
let n_iterations t = t.iterations

let run ?(deadline = Metrics.no_deadline) (prog : Prog.t) : t =
  let t =
    {
      var_node = Hashtbl.create 1024;
      n_nodes = 0;
      pts = Array.make 1024 ISet.empty;
      copy = Array.make 1024 ISet.empty;
      loads = Array.make 1024 [];
      stores = Array.make 1024 [];
      obj_mem = Array.make 256 (-1);
      n_objects = 0;
      u_obj = 0;
      iterations = 0;
      timed_out = false;
    }
  in
  (* object 0 = universal unknown *)
  let u = fresh_object t in
  assert (u = 0);
  t.pts.(t.obj_mem.(u)) <- ISet.singleton u;
  let init_pts = ref [] in
  let add_init n o = init_pts := (n, o) :: !init_pts in
  let copy_edge src dst =
    if src <> dst then t.copy.(src) <- ISet.add dst t.copy.(src)
  in
  let alloc_obj : (string * int, int) Hashtbl.t = Hashtbl.create 256 in
  (* operand handling: only variables carry pointers *)
  let opnode fname = function
    | Stmt.Ovar v -> Some (node_of t fname v)
    | _ -> None
  in
  (* lower *(p,k) to a chain: returns the node standing for *(p,k-1)'s
     value, from which a load/store at level 1 happens *)
  let rec chain fname p k =
    if k <= 1 then p
    else begin
      let mid = fresh_node t in
      (* mid <- *(p, k-1) *)
      let base = chain fname p (k - 1) in
      t.loads.(base) <- (mid, 1) :: t.loads.(base);
      mid
    end
  in
  let entry_like : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (f : Func.t) -> Hashtbl.replace entry_like f.Func.fname ()) (Prog.functions prog);
  (* Generate constraints. *)
  List.iter
    (fun (f : Func.t) ->
      let fname = f.Func.fname in
      Func.iter_stmts f (fun _ s ->
          match s.Stmt.kind with
          | Stmt.Assign (v, o) -> (
            match opnode fname o with
            | Some src -> copy_edge src (node_of t fname v)
            | None -> ())
          | Stmt.Phi (v, args) ->
            List.iter
              (fun (a : Stmt.phi_arg) ->
                match opnode fname a.Stmt.src with
                | Some src -> copy_edge src (node_of t fname v)
                | None -> ())
              args
          | Stmt.Binop (v, (Ops.Add | Ops.Sub), a, b) ->
            List.iter
              (fun o ->
                match opnode fname o with
                | Some src -> copy_edge src (node_of t fname v)
                | None -> ())
              [ a; b ]
          | Stmt.Binop _ | Stmt.Unop _ -> ()
          | Stmt.Alloc v ->
            let o =
              match Hashtbl.find_opt alloc_obj (fname, s.Stmt.sid) with
              | Some o -> o
              | None ->
                let o = fresh_object t in
                Hashtbl.add alloc_obj (fname, s.Stmt.sid) o;
                o
            in
            add_init (node_of t fname v) o
          | Stmt.Load (v, base, k) -> (
            match opnode fname base with
            | Some p ->
              let p' = chain fname p k in
              t.loads.(p') <- (node_of t fname v, 1) :: t.loads.(p')
            | None -> ())
          | Stmt.Store (base, k, value) -> (
            match (opnode fname base, opnode fname value) with
            | Some p, Some src ->
              let p' = chain fname p k in
              t.stores.(p') <- (src, 1) :: t.stores.(p')
            | Some p, None -> ignore (chain fname p k)
            | None, _ -> ())
          | Stmt.Call c -> (
            match Prog.find prog c.Stmt.callee with
            | Some callee ->
              Hashtbl.remove entry_like c.Stmt.callee;
              (* bind args to params, returns to receivers *)
              List.iteri
                (fun i arg ->
                  match (opnode fname arg, List.nth_opt callee.Func.params i) with
                  | Some src, Some p ->
                    copy_edge src (node_of t callee.Func.fname p)
                  | _ -> ())
                c.Stmt.args;
              (match Func.return_stmt callee with
              | Some { Stmt.kind = Stmt.Return ops; _ } ->
                List.iteri
                  (fun j op ->
                    match
                      (opnode callee.Func.fname op, List.nth_opt c.Stmt.recvs j)
                    with
                    | Some src, Some r -> copy_edge src (node_of t fname r)
                    | _ -> ())
                  ops
              | _ -> ())
            | None ->
              (* external: receivers unknown, arguments escape *)
              List.iter
                (fun (r : Var.t) ->
                  if Ty.is_pointer r.Var.ty then add_init (node_of t fname r) u)
                c.Stmt.recvs;
              if c.Stmt.callee <> "free" && c.Stmt.callee <> "print" then
                List.iter
                  (fun arg ->
                    match opnode fname arg with
                    | Some src -> copy_edge src t.obj_mem.(u)
                    | None -> ())
                  c.Stmt.args)
          | Stmt.Return _ -> ()))
    (Prog.functions prog);
  (* Entry-point parameters point to the universal blob. *)
  Hashtbl.iter
    (fun fname () ->
      match Prog.find prog fname with
      | Some f ->
        List.iter
          (fun (p : Var.t) ->
            if Ty.is_pointer p.Var.ty then add_init (node_of t fname p) u)
          f.Func.params
      | None -> ())
    entry_like;
  (* Solve: hand the generated constraints to the wavefront solver
     (DESIGN.md §4.15). *)
  let sys =
    {
      Wavefront.n_nodes = t.n_nodes;
      obj_mem = t.obj_mem;
      copy = Array.sub t.copy 0 t.n_nodes;
      loads = Array.map (List.map fst) (Array.sub t.loads 0 t.n_nodes);
      stores = Array.map (List.map fst) (Array.sub t.stores 0 t.n_nodes);
      init = ((t.obj_mem.(u), u) :: List.rev !init_pts);
    }
  in
  let r = Wavefront.solve ~deadline sys in
  t.pts <- r.Wavefront.pts;
  t.iterations <- r.Wavefront.iterations;
  t.timed_out <- r.Wavefront.timed_out;
  t

let timed_out t = t.timed_out
