type t = {
  mutable succs : int list array;
  mutable preds : int list array;
  mutable n : int;
  mutable m : int;
}

let create ?(initial_capacity = 16) () =
  let cap = max initial_capacity 1 in
  { succs = Array.make cap []; preds = Array.make cap []; n = 0; m = 0 }

let grow g cap =
  if cap > Array.length g.succs then begin
    let cap' = max cap (2 * Array.length g.succs) in
    let s = Array.make cap' [] and p = Array.make cap' [] in
    Array.blit g.succs 0 s 0 g.n;
    Array.blit g.preds 0 p 0 g.n;
    g.succs <- s;
    g.preds <- p
  end

let ensure_node g id =
  if id >= g.n then begin
    grow g (id + 1);
    g.n <- id + 1
  end

let n_nodes g = g.n
let n_edges g = g.m

let add_edge g u v =
  ensure_node g u;
  ensure_node g v;
  g.succs.(u) <- v :: g.succs.(u);
  g.preds.(v) <- u :: g.preds.(v);
  g.m <- g.m + 1

let has_edge g u v = u < g.n && List.mem v g.succs.(u)
let succs g u = if u < g.n then g.succs.(u) else []
let preds g v = if v < g.n then g.preds.(v) else []
let in_degree g v = List.length (preds g v)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> f u v) g.succs.(u)
  done

let post_order g root =
  let visited = Array.make (max g.n 1) false in
  let acc = ref [] in
  (* Explicit stack to survive deep synthetic programs. *)
  let rec visit u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter visit g.succs.(u);
      acc := u :: !acc
    end
  in
  visit root;
  (* acc currently holds reverse post-order; post-order is its reverse. *)
  let rpo = Array.of_list !acc in
  let n = Array.length rpo in
  Array.init n (fun i -> rpo.(n - 1 - i))

let reverse_post_order g root =
  let po = post_order g root in
  let n = Array.length po in
  Array.init n (fun i -> po.(n - 1 - i))

let reachable g root =
  let visited = Array.make (max g.n 1) false in
  let rec visit u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter visit g.succs.(u)
    end
  in
  if g.n > 0 then visit root;
  visited

let topo_sort g =
  let indeg = Array.make (max g.n 1) 0 in
  iter_edges g (fun _ v -> indeg.(v) <- indeg.(v) + 1);
  let q = Queue.create () in
  for u = 0 to g.n - 1 do
    if indeg.(u) = 0 then Queue.add u q
  done;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    incr seen;
    order := u :: !order;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v q)
      g.succs.(u)
  done;
  if !seen = g.n then Some (List.rev !order) else None

let is_dag g = topo_sort g <> None

let sccs g =
  (* Tarjan, iterative to avoid stack overflow on big graphs. *)
  let n = g.n in
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let next_index = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) = -1 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      g.succs.(v);
    if lowlink.(v) = index.(v) then begin
      let comp = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp := w :: !comp;
          if w = v then continue := false
      done;
      out := !comp :: !out
    end
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then strongconnect v
  done;
  List.rev !out

type dom = { idom : int array; dom_order : int array }

let dominators_of ~succs:_ ~preds ~rpo_of g root =
  let n = g.n in
  let rpo = rpo_of g root in
  let rpo_num = Array.make (max n 1) (-1) in
  Array.iteri (fun i v -> rpo_num.(v) <- i) rpo;
  let idom = Array.make (max n 1) (-1) in
  idom.(root) <- root;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_num.(!f1) > rpo_num.(!f2) do
        f1 := idom.(!f1)
      done;
      while rpo_num.(!f2) > rpo_num.(!f1) do
        f2 := idom.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> root then begin
          let new_idom = ref (-1) in
          List.iter
            (fun p ->
              if rpo_num.(p) >= 0 && idom.(p) <> -1 then
                if !new_idom = -1 then new_idom := p
                else new_idom := intersect p !new_idom)
            (preds g b);
          if !new_idom <> -1 && idom.(b) <> !new_idom then begin
            idom.(b) <- !new_idom;
            changed := true
          end
        end)
      rpo
  done;
  { idom; dom_order = rpo }

let dominators g root =
  dominators_of ~succs:succs ~preds:(fun g v -> preds g v) ~rpo_of:reverse_post_order g root

let reversed g =
  let r = create ~initial_capacity:(max g.n 1) () in
  ensure_node r (g.n - 1);
  iter_edges g (fun u v -> add_edge r v u);
  r

let post_dominators g exit_node =
  let r = reversed g in
  dominators r exit_node

let dominates d u v =
  if v >= Array.length d.idom || u >= Array.length d.idom then false
  else begin
    let rec up x = if x = u then true else if x = d.idom.(x) || d.idom.(x) = -1 then false else up d.idom.(x) in
    if d.idom.(v) = -1 && v <> u then false else up v
  end

let dominance_frontier g d =
  let n = g.n in
  let df = Array.make (max n 1) [] in
  for b = 0 to n - 1 do
    let ps = preds g b in
    if List.length ps >= 2 then
      List.iter
        (fun p ->
          if d.idom.(p) <> -1 && d.idom.(b) <> -1 then begin
            let runner = ref p in
            while !runner <> d.idom.(b) && !runner <> -1 do
              if not (List.mem b df.(!runner)) then df.(!runner) <- b :: df.(!runner);
              if !runner = d.idom.(!runner) then runner := -1 else runner := d.idom.(!runner)
            done
          end)
        ps
  done;
  df

let dot ?(name = "g") ?(label = string_of_int) g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  for u = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=%S];\n" u (label u))
  done;
  iter_edges g (fun u v -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
