(* Per-layer attribution of a traced run.

   A span's self time is its duration minus the union of its children's
   intervals; its self allocation is its allocation minus that of its
   children on the same domain (allocation counters are domain-local).
   A span's children are the spans directly nested in it on its own
   domain, plus — for a span that hands work to the worker pool — the
   outermost spans of the workers that ran while it waited: a worker's
   top-level span is a child of the innermost span on the submitting
   domain that contains it in time and is not itself inside a pool task.
   Sibling tasks running concurrently on two domains are therefore never
   each other's children.

   Each span name belongs to one layer; bench-opened spans that only
   group calls belong to none, and their self time is reported as
   unattributed.  A pool task is no layer of its own: its self time is
   work of the phase that submitted it (RV summaries, for one, have no
   per-function span). *)

module Obs = Pinpoint_obs.Obs

let layers = [ "frontend"; "pta"; "transform"; "seg"; "rv"; "vf"; "engine"; "smt"; "store"; "server" ]

(* The layer each span name belongs to.  [bench.load] is Server.load_files:
   outside its transform/seg/summary children that is parsing and
   lowering.  [bench.check] and [incr.check] are Engine.run outside its
   per-source searches. *)
let layer_of = function
  | "lower" | "bench.lower" | "bench.load" -> Some "frontend"
  | "pta" -> Some "pta"
  | "transform" -> Some "transform"
  | "seg.build.all" | "seg.build" -> Some "seg"
  | "summary" -> Some "rv"
  | "summary.vf" -> Some "vf"
  | "bench.check" | "incr.check" | "engine.source" -> Some "engine"
  | "smt.query" -> Some "smt"
  | "bench.seal" -> Some "store"
  | "bench.request" | "server.request" | "incr.update" -> Some "server"
  | _ -> None

type attributed = { span : Obs.span; self_s : float; self_alloc : float; layer : string option }

let contains (p : Obs.span) (c : Obs.span) = p.t0 <= c.t0 && c.t1 <= p.t1

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let sorted = List.sort compare intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b <= a then (total, cur)
        else
          match cur with
          | None -> (total, Some (a, b))
          | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
          | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match cur with Some (a, b) -> total +. (b -. a) | None -> total

let attribute (spans : Obs.span list) : attributed list =
  let spans = Array.of_list spans in
  (* [Obs.spans] lists each domain's spans as they closed *)
  Array.stable_sort (fun (a : Obs.span) b -> compare (a.dom, a.open_seq) (b.dom, b.open_seq)) spans;
  let n = Array.length spans in
  (* Same-domain parents: in open order a domain's spans nest, so a stack
     of the spans still open gives each one's parent. *)
  let parent = Array.make n (-1) in
  let stack = ref [] in
  Array.iteri
    (fun i (s : Obs.span) ->
      let rec pop () =
        match !stack with
        | j :: rest
          when spans.(j).Obs.dom <> s.dom || spans.(j).Obs.close_seq < s.open_seq ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with j :: _ -> parent.(i) <- j | [] -> ());
      stack := i :: !stack)
    spans;
  let rec in_task i =
    let p = parent.(i) in
    p >= 0 && (spans.(p).Obs.name = "par.task" || in_task p)
  in
  let roots = List.filter (fun i -> parent.(i) < 0) (List.init n Fun.id) in
  let main_dom =
    (* the domain of the longest top-level span: the one that drove the run *)
    List.fold_left
      (fun best i ->
        match best with
        | Some b
          when spans.(b).Obs.t1 -. spans.(b).Obs.t0 >= spans.(i).Obs.t1 -. spans.(i).Obs.t0 ->
          best
        | _ -> Some i)
      None roots
    |> Option.fold ~none:(-1) ~some:(fun i -> spans.(i).Obs.dom)
  in
  let spine =
    List.filter
      (fun i -> spans.(i).Obs.dom = main_dom && spans.(i).Obs.name <> "par.task" && not (in_task i))
      (List.init n Fun.id)
  in
  (* Worker top-level spans adopt the innermost containing spine span:
     spine spans nest, so that is the deepest one. *)
  List.iter
    (fun i ->
      if spans.(i).Obs.dom <> main_dom then
        let best =
          List.fold_left
            (fun best j ->
              if not (contains spans.(j) spans.(i)) then best
              else
                match best with
                | Some b when spans.(b).Obs.depth >= spans.(j).Obs.depth -> best
                | _ -> Some j)
            None spine
        in
        Option.iter (fun j -> parent.(i) <- j) best)
    roots;
  let rec layer i =
    if spans.(i).Obs.name <> "par.task" then layer_of spans.(i).Obs.name
    else if parent.(i) >= 0 then layer parent.(i)
    else None
  in
  let children = Array.make n [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- i :: children.(p)) parent;
  Array.to_list
    (Array.mapi
       (fun i (s : Obs.span) ->
         let kids = List.map (fun j -> spans.(j)) children.(i) in
         let covered =
           union_length ~lo:s.t0 ~hi:s.t1 (List.map (fun (c : Obs.span) -> (c.t0, c.t1)) kids)
         in
         let same_dom_alloc =
           List.fold_left
             (fun acc (c : Obs.span) -> if c.dom = s.dom then acc +. c.alloc_bytes else acc)
             0.0 kids
         in
         {
           span = s;
           self_s = s.t1 -. s.t0 -. covered;
           self_alloc = s.alloc_bytes -. same_dom_alloc;
           layer = layer i;
         })
       spans)

type layer_total = { self_s : float; alloc_bytes : float }

type summary = {
  wall_s : float;  (** duration of the run's outermost span *)
  by_layer : (string * layer_total) list;  (** every layer of [layers], in order *)
  unattributed_s : float;  (** self time of spans that belong to no layer *)
  alloc_bytes : float;  (** self allocation summed over every span *)
}

let summarise spans =
  let attributed = attribute spans in
  let zero = { self_s = 0.0; alloc_bytes = 0.0 } in
  let totals = Hashtbl.create 16 in
  let unattributed = ref 0.0 and alloc = ref 0.0 and wall = ref 0.0 in
  List.iter
    (fun (a : attributed) ->
      alloc := !alloc +. a.self_alloc;
      wall := Float.max !wall (a.span.t1 -. a.span.t0);
      match a.layer with
      | None -> unattributed := !unattributed +. a.self_s
      | Some l ->
        let t = Option.value (Hashtbl.find_opt totals l) ~default:zero in
        Hashtbl.replace totals l
          { self_s = t.self_s +. a.self_s; alloc_bytes = t.alloc_bytes +. a.self_alloc })
    attributed;
  {
    wall_s = !wall;
    by_layer = List.map (fun l -> (l, Option.value (Hashtbl.find_opt totals l) ~default:zero)) layers;
    unattributed_s = !unattributed;
    alloc_bytes = !alloc;
  }

let layer s name = List.assoc name s.by_layer

(* Wall time of every span with this name, e.g. one per SMT query. *)
let durations spans name =
  List.filter_map
    (fun (s : Obs.span) -> if s.name = name then Some (s.t1 -. s.t0) else None)
    spans
