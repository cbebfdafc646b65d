type t = int
type sort = Bool | Int

(* Bit 0 of an id is its sort.  A plain symbol (bit 60 clear) packs its
   function's ordinal, that function's generation and the variable's vid,
   most significant first; a registered one (bit 60 set: a clone or a
   fresh symbol) packs its registration index. *)
let vid_bits = 20
let gen_bits = 19
let registered = 1 lsl 60
let bound = 1 lsl 61
let sort s = if s land 1 = 0 then Bool else Int
let sort_bit so = if so = Bool then 0 else 1

let fits what bits v =
  if v < 0 || v lsr bits <> 0 then
    failwith (Printf.sprintf "Symbol: %s %d overflows %d bits" what v bits)

(* A function's variable names by vid.  Only the domain that owns the
   function writes them (the Id_gen rule); others read them after the
   function is handed over. *)
type space = {
  ordinal : int;
  generation : int;
  mutable names : string array;
  mutable n : int;
}

(* [spaces.(o)]: ordinal [o]'s spaces, newest first.  Registration here
   and below is serialised by [lock]; readers take no lock: arrays are
   published through Atomics, and a slot is written before its symbol. *)
let spaces : space list array Atomic.t = Atomic.make [||]
let lock = Mutex.create ()

let space ~ordinal =
  fits "ordinal" 20 ordinal;
  Mutex.protect lock (fun () ->
      let d = Atomic.get spaces in
      let d =
        if ordinal < Array.length d then d
        else Array.append d (Array.make (ordinal + 1) [])
      in
      let generation =
        match d.(ordinal) with [] -> 0 | sp :: _ -> sp.generation + 1
      in
      fits "generation" gen_bits generation;
      let sp = { ordinal; generation; names = [||]; n = 0 } in
      d.(ordinal) <- sp :: d.(ordinal);
      Atomic.set spaces d;
      sp)

let generation sp = sp.generation

let of_place ~ordinal ~generation ~vid so =
  (((((ordinal lsl gen_bits) lor generation) lsl vid_bits) lor vid) lsl 1)
  lor sort_bit so

let make sp vid nm so =
  fits "vid" vid_bits vid;
  if vid >= Array.length sp.names then
    sp.names <- Array.append sp.names (Array.make (vid + 1) "");
  sp.names.(vid) <- nm;
  sp.n <- max sp.n (vid + 1);
  of_place ~ordinal:sp.ordinal ~generation:sp.generation ~vid so

(* Clones and fresh symbols: a fresh symbol's name or a clone's tag, and
   a clone's base ([-1]: fresh).  The clone table never shrinks. *)
type registry = { labels : string array; bases : t array }

let reg = Atomic.make { labels = [||]; bases = [||] }
let next = ref 0
let clones : (t * string, t) Hashtbl.t = Hashtbl.create 256

let register label so ~base =
  let r = Atomic.get reg and i = !next in
  let r =
    if i < Array.length r.labels then r
    else
      {
        labels = Array.append r.labels (Array.make (i + 1) "");
        bases = Array.append r.bases (Array.make (i + 1) (-1));
      }
  in
  r.labels.(i) <- label;
  r.bases.(i) <- base;
  Atomic.set reg r;
  next := i + 1;
  registered lor (i lsl 1) lor sort_bit so

let fresh nm so = Mutex.protect lock (fun () -> register nm so ~base:(-1))

let clone base tag =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt clones (base, tag) with
      | Some c -> c
      | None ->
        let c = register tag (sort base) ~base in
        Hashtbl.add clones (base, tag) c;
        c)

type origin =
  | Place of { ordinal : int; generation : int; vid : int }
  | Clone of t * string
  | Fresh

let index s = (s lxor registered) lsr 1

let origin s =
  if s < registered then
    let place = s lsr (1 + vid_bits) in
    Place
      {
        ordinal = place lsr gen_bits;
        generation = place land ((1 lsl gen_bits) - 1);
        vid = (s lsr 1) land ((1 lsl vid_bits) - 1);
      }
  else
    let r = Atomic.get reg and i = index s in
    if r.bases.(i) < 0 then Fresh else Clone (r.bases.(i), r.labels.(i))

let rec name s =
  match origin s with
  | Place { ordinal; generation; vid } ->
    let sp =
      List.find (fun sp -> sp.generation = generation) (Atomic.get spaces).(ordinal)
    in
    sp.names.(vid)
  | Clone (base, tag) -> name base ^ "@" ^ tag
  | Fresh -> (Atomic.get reg).labels.(index s)

let count () =
  Array.fold_left (List.fold_left (fun n sp -> n + sp.n)) !next (Atomic.get spaces)

(* A clone has no number of its own: its registration index depends on
   the order frames are reached in, which depends on the schedule. *)
let rec pp ppf s =
  match origin s with
  | Place { vid; _ } -> Format.fprintf ppf "%s#%d" (name s) vid
  | Clone (base, tag) -> Format.fprintf ppf "%a@@%s" pp base tag
  | Fresh -> Format.fprintf ppf "%s#%d" (name s) (index s)
