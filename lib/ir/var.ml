type kind =
  | Local
  | Formal
  | Aux_formal of { root : t; depth : int }
  | Aux_return of { root : t; depth : int }
  | Aux_actual of { arg_index : int }
  | Aux_receiver of { ret_index : int }

and t = {
  vid : int;
  name : string;
  ty : Ty.t;
  kind : kind;
  sym : Pinpoint_smt.Symbol.t;
}

type gen = {
  ids : Pinpoint_util.Id_gen.t;
  space : Pinpoint_smt.Symbol.space;
  mutable vars : t array;  (** by vid *)
}

let gen ~ordinal =
  {
    ids = Pinpoint_util.Id_gen.create ();
    space = Pinpoint_smt.Symbol.space ~ordinal;
    vars = [||];
  }

let generation gen = Pinpoint_smt.Symbol.generation gen.space
let count gen = Pinpoint_util.Id_gen.count gen.ids
let of_vid gen vid = gen.vars.(vid)

let make gen ?(kind = Local) name ty =
  let vid = Pinpoint_util.Id_gen.fresh gen.ids in
  let sym = Pinpoint_smt.Symbol.make gen.space vid name (Ty.sort ty) in
  let v = { vid; name; ty; kind; sym } in
  if vid >= Array.length gen.vars then
    gen.vars <- Array.append gen.vars (Array.make (vid + 1) v);
  gen.vars.(vid) <- v;
  v

let symbol v = v.sym
let term v = Pinpoint_smt.Expr.var (symbol v)
let equal a b = a.vid = b.vid
let compare a b = Int.compare a.vid b.vid
let hash a = a.vid

let is_interface v =
  match v.kind with Formal | Aux_formal _ -> true | _ -> false

let pp ppf v = Format.fprintf ppf "%s" v.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
