module D = Pinpoint_util.Digraph

(* Variables are compared by vid within one function. *)

let run (f : Func.t) =
  let g = Func.cfg f in
  let dom = D.dominators g f.Func.entry in
  let df = D.dominance_frontier g dom in
  let nb = Func.n_blocks f in
  (* 1. Collect definition sites per variable (pre-SSA: variables can be
     defined many times). Parameters count as defined at entry. *)
  let def_blocks : (int, unit) Hashtbl.t Var.Tbl.t = Var.Tbl.create 64 in
  let add_def v b =
    let tbl =
      match Var.Tbl.find_opt def_blocks v with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Var.Tbl.add def_blocks v t;
        t
    in
    Hashtbl.replace tbl b ()
  in
  List.iter (fun p -> add_def p f.Func.entry) f.Func.params;
  Func.iter_stmts f (fun b s -> List.iter (fun v -> add_def v b.Func.bid) (Stmt.def s));
  (* 2. Place φs: iterated dominance frontier of each variable's def sites.
     Only for variables defined more than once or in more than one block. *)
  let phi_for : (int * int, Stmt.t) Hashtbl.t = Hashtbl.create 64 in
  (* (bid, vid) -> phi stmt *)
  let needs_phi v =
    match Var.Tbl.find_opt def_blocks v with
    | None -> false
    | Some tbl -> Hashtbl.length tbl > 1
  in
  let preds_of = Array.init nb (fun b -> D.preds g b) in
  Var.Tbl.iter
    (fun v tbl ->
      if needs_phi v then begin
        let work = Queue.create () in
        Hashtbl.iter (fun b () -> Queue.add b work) tbl;
        let placed = Hashtbl.create 8 in
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          List.iter
            (fun y ->
              if (not (Hashtbl.mem placed y)) && List.length preds_of.(y) > 1 then begin
                Hashtbl.add placed y ();
                let args =
                  List.map
                    (fun p -> { Stmt.pred = p; src = Stmt.Ovar v; gate = None })
                    preds_of.(y)
                in
                let s = Stmt.make f.Func.sgen (Stmt.Phi (v, args)) in
                Hashtbl.add phi_for (y, v.Var.vid) s;
                let blk = Func.block f y in
                blk.Func.stmts <- s :: blk.Func.stmts;
                (* The φ defines v, so y becomes a def site. *)
                if not (Hashtbl.mem tbl y) then begin
                  Hashtbl.add tbl y ();
                  Queue.add y work
                end
              end)
            df.(b)
        done
      end)
    def_blocks;
  (* 3. Rename along the dominator tree. *)
  let dom_children = Array.make nb [] in
  for b = 0 to nb - 1 do
    if b <> f.Func.entry && dom.D.idom.(b) <> -1 then
      dom_children.(dom.D.idom.(b)) <- b :: dom_children.(dom.D.idom.(b))
  done;
  let stacks : Var.t list Var.Tbl.t = Var.Tbl.create 64 in
  let versions : int Var.Tbl.t = Var.Tbl.create 64 in
  let top v =
    match Var.Tbl.find_opt stacks v with Some (x :: _) -> Some x | _ -> None
  in
  let push v v' =
    let cur = Option.value (Var.Tbl.find_opt stacks v) ~default:[] in
    Var.Tbl.replace stacks v (v' :: cur)
  in
  let pop v =
    match Var.Tbl.find_opt stacks v with
    | Some (_ :: rest) -> Var.Tbl.replace stacks v rest
    | _ -> ()
  in
  let fresh_version v =
    let n = Option.value (Var.Tbl.find_opt versions v) ~default:0 in
    Var.Tbl.replace versions v (n + 1);
    if n = 0 then v (* first definition keeps the original variable *)
    else
      Var.make f.Func.vgen ~kind:v.Var.kind
        (Printf.sprintf "%s.%d" v.Var.name n)
        v.Var.ty
  in
  let rename_operand o =
    match o with
    | Stmt.Ovar v -> (
      match top v with Some v' -> Stmt.Ovar v' | None -> o)
    | _ -> o
  in
  (* Parameters: version 0 is the parameter itself. *)
  List.iter
    (fun p ->
      Var.Tbl.replace versions p 1;
      push p p)
    f.Func.params;
  let rec rename b =
    let blk = Func.block f b in
    let defined_here = ref [] in
    List.iter
      (fun s ->
        (match s.Stmt.kind with
        | Stmt.Phi (v, args) ->
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Phi (v', args)
        | Stmt.Assign (v, o) ->
          let o = rename_operand o in
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Assign (v', o)
        | Stmt.Binop (v, op, a, bb) ->
          let a = rename_operand a and bb = rename_operand bb in
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Binop (v', op, a, bb)
        | Stmt.Unop (v, op, a) ->
          let a = rename_operand a in
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Unop (v', op, a)
        | Stmt.Load (v, base, k) ->
          let base = rename_operand base in
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Load (v', base, k)
        | Stmt.Store (base, k, value) ->
          s.Stmt.kind <- Stmt.Store (rename_operand base, k, rename_operand value)
        | Stmt.Alloc v ->
          let v' = fresh_version v in
          push v v';
          defined_here := v :: !defined_here;
          s.Stmt.kind <- Stmt.Alloc v'
        | Stmt.Call c ->
          c.Stmt.args <- List.map rename_operand c.Stmt.args;
          let recvs' =
            List.map
              (fun v ->
                let v' = fresh_version v in
                push v v';
                defined_here := v :: !defined_here;
                v')
              c.Stmt.recvs
          in
          c.Stmt.recvs <- recvs'
        | Stmt.Return os -> s.Stmt.kind <- Stmt.Return (List.map rename_operand os));
        ())
      blk.Func.stmts;
    (* Rename the branch condition. *)
    (match blk.Func.term with
    | Func.Br (c, t, e) -> blk.Func.term <- Func.Br (rename_operand c, t, e)
    | _ -> ());
    (* Fill φ arguments in successors. *)
    List.iter
      (fun succ ->
        let sblk = Func.block f succ in
        List.iter
          (fun s ->
            match s.Stmt.kind with
            | Stmt.Phi (_, args) ->
              List.iter
                (fun (a : Stmt.phi_arg) ->
                  if a.Stmt.pred = b then
                    a.Stmt.src <-
                      (match a.Stmt.src with
                      | Stmt.Ovar v -> (
                        (* v is the original (pre-SSA) variable *)
                        match top v with
                        | Some v' -> Stmt.Ovar v'
                        | None -> Stmt.Ovar v)
                      | o -> o))
                args
            | _ -> ())
          sblk.Func.stmts)
      (Func.succs blk.Func.term);
    List.iter rename dom_children.(b);
    List.iter pop (List.rev !defined_here)
  in
  rename f.Func.entry

let is_ssa (f : Func.t) =
  let defs = Var.Tbl.create 64 in
  let ok = ref true in
  Func.iter_stmts f (fun _ s ->
      List.iter
        (fun v ->
          if Var.Tbl.mem defs v then ok := false else Var.Tbl.add defs v ())
        (Stmt.def s));
  List.iter (fun p -> if Var.Tbl.mem defs p then ok := false) f.Func.params;
  !ok
