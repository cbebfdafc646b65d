module Digraph = Pinpoint_util.Digraph

type t = {
  index : (string, int) Hashtbl.t;  (** function name -> node *)
  funcs : Func.t array;  (** definition order *)
  calls : (int * Stmt.t) list array;
      (** per caller: (callee node, call statement), statement order *)
  callers : (Func.t * Stmt.t) list array;
  mutable comps : int list array;  (** SCCs, bottom-up *)
  mutable comp_of : int array;  (** node -> its SCC's position in [comps] *)
}

let scan index (f : Func.t) =
  List.rev
    (Func.fold_stmts f ~init:[] ~f:(fun acc _ s ->
         match s.Stmt.kind with
         | Stmt.Call c -> (
           match Hashtbl.find_opt index c.Stmt.callee with
           | Some j -> (j, s) :: acc
           | None -> acc)
         | _ -> acc))

(* Tarjan over the integer edges, added in the order [Prog.call_graph]
   adds them, so the components and their member order are the ones a
   from-scratch scan yields. *)
let solve g =
  let n = Array.length g.funcs in
  let dg = Digraph.create ~initial_capacity:n () in
  if n > 0 then Digraph.ensure_node dg (n - 1);
  Array.iteri
    (fun i cs -> List.iter (fun (j, _) -> Digraph.add_edge dg i j) cs)
    g.calls;
  let comps = Array.of_list (if n = 0 then [] else Digraph.sccs dg) in
  let comp_of = Array.make n 0 in
  Array.iteri (fun c members -> List.iter (fun i -> comp_of.(i) <- c) members) comps;
  g.comps <- comps;
  g.comp_of <- comp_of

let build (prog : Prog.t) =
  let funcs = Array.of_list (Prog.functions prog) in
  let index = Hashtbl.create (Array.length funcs) in
  Array.iteri (fun i (f : Func.t) -> Hashtbl.replace index f.Func.fname i) funcs;
  let calls = Array.map (scan index) funcs in
  let callers = Array.make (Array.length funcs) [] in
  Array.iteri
    (fun i cs ->
      List.iter (fun (j, s) -> callers.(j) <- (funcs.(i), s) :: callers.(j)) cs)
    calls;
  let g = { index; funcs; calls; callers; comps = [||]; comp_of = [||] } in
  solve g;
  g

let functions g = Array.to_list g.funcs
let members g c = List.map (Array.get g.funcs) g.comps.(c)
let sccs g = List.init (Array.length g.comps) (members g)

let callers g name =
  match Hashtbl.find_opt g.index name with Some j -> g.callers.(j) | None -> []

let callees g (fs : Func.t list) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : Func.t) ->
      match Hashtbl.find_opt g.index f.Func.fname with
      | Some i ->
        List.iter
          (fun (j, _) -> Hashtbl.replace seen g.funcs.(j).Func.fname ())
          g.calls.(i)
      | None -> ())
    fs;
  Hashtbl.fold (fun name () acc -> name :: acc) seen []

let upward g names =
  let marked = Array.make (Array.length g.comps) false in
  let rec visit i =
    let c = g.comp_of.(i) in
    if not marked.(c) then begin
      marked.(c) <- true;
      List.iter
        (fun k ->
          List.iter
            (fun ((f : Func.t), _) -> visit (Hashtbl.find g.index f.Func.fname))
            g.callers.(k))
        g.comps.(c)
    end
  in
  List.iter (fun name -> Option.iter visit (Hashtbl.find_opt g.index name)) names;
  List.filteri (fun c _ -> marked.(c)) (sccs g)

(* A callee's caller list, rebuilt from its callers' call lists in the
   order [build] produces: callers in reverse definition order, each
   caller's calls in reverse statement order.  [extra] are callers the
   current list may not name yet. *)
let rebuild_callers g j extra =
  let nodes =
    List.map (fun ((f : Func.t), _) -> Hashtbl.find g.index f.Func.fname) g.callers.(j)
    @ extra
    |> List.sort_uniq (fun a b -> Int.compare b a)
  in
  g.callers.(j) <-
    List.concat_map
      (fun i ->
        List.rev
          (List.filter_map
             (fun (k, s) -> if k = j then Some (g.funcs.(i), s) else None)
             g.calls.(i)))
      nodes

let replace g (fs : Func.t list) =
  let old_comps = g.comps and old_comp_of = g.comp_of in
  (* The callees of the old bodies and the new: their caller lists are
     the ones the edit can change. *)
  let touched = Hashtbl.create 16 in
  let touch i = List.iter (fun (j, _) -> Hashtbl.replace touched j ()) g.calls.(i) in
  let nodes =
    List.map
      (fun (f : Func.t) ->
        let i = Hashtbl.find g.index f.Func.fname in
        touch i;
        g.funcs.(i) <- f;
        g.calls.(i) <- scan g.index f;
        touch i;
        i)
      fs
  in
  Hashtbl.iter (fun j () -> rebuild_callers g j nodes) touched;
  solve g;
  let moved = ref [] in
  Array.iteri
    (fun i (f : Func.t) ->
      if old_comps.(old_comp_of.(i)) <> g.comps.(g.comp_of.(i)) then
        moved := f.Func.fname :: !moved)
    g.funcs;
  List.rev !moved
