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
  let marked = Hashtbl.create 16 in
  let rec visit i =
    let c = g.comp_of.(i) in
    if not (Hashtbl.mem marked c) then begin
      Hashtbl.replace marked c ();
      List.iter
        (fun k ->
          List.iter
            (fun ((f : Func.t), _) -> visit (Hashtbl.find g.index f.Func.fname))
            g.callers.(k))
        g.comps.(c)
    end
  in
  List.iter (fun name -> Option.iter visit (Hashtbl.find_opt g.index name)) names;
  List.sort Int.compare (Hashtbl.fold (fun c () acc -> c :: acc) marked [])

(* Node [i]'s entries in callee [j]'s caller list: its calls to [j], in
   reverse statement order. *)
let entries g i j =
  List.fold_left
    (fun acc (k, s) -> if k = j then (g.funcs.(i), s) :: acc else acc)
    [] g.calls.(i)

(* Patch callee [j]'s caller list for the replaced nodes [nodes], in
   descending order, each given with the function it replaced and
   whether that one called [j].  A node's old entries form one block,
   found by that function, and give way to its new entries; a node
   whose old body did not call [j] goes where definition order puts it,
   which costs an index look-up per entry passed.  The tail after the
   last patched block is kept as it is. *)
let patch_callers g j nodes =
  let rec go nodes l =
    match (nodes, l) with
    | [], _ -> l
    | (i, _, _) :: rest, [] -> entries g i j @ go rest []
    | ((i, old, had) :: rest as nodes), ((((f : Func.t), _) as e) :: tl as l) ->
      if f == old then
        let rec past = function
          | ((f' : Func.t), _) :: tl when f' == old -> past tl
          | tl -> tl
        in
        entries g i j @ go rest (past tl)
      else if had || Hashtbl.find g.index f.Func.fname > i then e :: go nodes tl
      else entries g i j @ go rest l
  in
  g.callers.(j) <- go nodes g.callers.(j)

let same_callees a b = List.equal (fun (j, _) (k, _) -> j = k) a b

let replace g (fs : Func.t list) =
  let replaced =
    List.map
      (fun (f : Func.t) ->
        let i = Hashtbl.find g.index f.Func.fname in
        let old = (g.funcs.(i), g.calls.(i)) in
        g.funcs.(i) <- f;
        g.calls.(i) <- scan g.index f;
        (i, old))
      fs
  in
  (* The callees of the old bodies and the new: their caller lists are
     the ones the edit can change. *)
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (i, (old_f, old_calls)) ->
      let touch (j, _) =
        let nodes = Option.value ~default:[] (Hashtbl.find_opt touched j) in
        if not (List.exists (fun (k, _, _) -> k = i) nodes) then
          Hashtbl.replace touched j
            ((i, old_f, List.exists (fun (k, _) -> k = j) old_calls) :: nodes)
      in
      List.iter touch old_calls;
      List.iter touch g.calls.(i))
    replaced;
  Hashtbl.iter
    (fun j nodes ->
      patch_callers g j
        (List.sort (fun (a, _, _) (b, _, _) -> Int.compare b a) nodes))
    touched;
  (* Equal callee sequences leave the integer edges, added in the same
     order, exactly as they were: Tarjan would return the same SCCs in
     the same order. *)
  if
    List.for_all
      (fun (i, (_, old_calls)) -> same_callees old_calls g.calls.(i))
      replaced
  then []
  else begin
    let old_comps = g.comps and old_comp_of = g.comp_of in
    solve g;
    let moved = ref [] in
    Array.iteri
      (fun i (f : Func.t) ->
        if old_comps.(old_comp_of.(i)) <> g.comps.(g.comp_of.(i)) then
          moved := f.Func.fname :: !moved)
      g.funcs;
    List.rev !moved
  end
