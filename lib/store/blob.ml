let magic = "PNPSTOR1"
let trailer_len = 40 (* index_off | index_len | fnv64 | epoch | magic, 8B each *)

(* FNV-1a over the index bytes, in Int64 so the full 64-bit constants
   apply.  Integrity check against torn/partial writes, not tampering. *)
let fnv64 (b : bytes) =
  let open Int64 in
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := mul (logxor !h (of_int (Char.code (Bytes.get b i)))) 0x100000001b3L
  done;
  !h

type mapped = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type state =
  | Writing of { fd : Unix.file_descr; mutable size : int }
  | Sealed of { map : mapped; size : int; index_off : int; index_len : int }
  | Closed

type t = {
  dir : string;
  mutable state : state;
  mutable epoch : int;
  mutable path : string;
}

let epoch_file dir ep = Filename.concat dir (Printf.sprintf "store.ep%06d.bin" ep)

let sealed_epochs dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries
    |> List.filter_map (fun name ->
           try Scanf.sscanf name "store.ep%06d.bin%!" (fun ep -> Some ep)
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    |> List.sort (fun a b -> compare b a) (* newest first *)

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Each blob writes its own file, [store.PID.N.tmp], created exclusively:
   two stores on one directory, in one process or two, never share it. *)
let create ~dir =
  mkdir_p dir;
  let rec open_fresh n =
    let path =
      Filename.concat dir (Printf.sprintf "store.%d.%d.tmp" (Unix.getpid ()) n)
    in
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL ] 0o644 with
    | fd -> (path, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> open_fresh (n + 1)
  in
  let path, fd = open_fresh 0 in
  { dir; state = Writing { fd; size = 0 }; epoch = 0; path }

let really_write fd b =
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd b !written (n - !written)
  done

let really_read fd b =
  let n = Bytes.length b in
  let got = ref 0 in
  while !got < n do
    let k = Unix.read fd b !got (n - !got) in
    if k = 0 then invalid_arg "Blob.read: short read";
    got := !got + k
  done

let append t b =
  match t.state with
  | Writing w ->
    ignore (Unix.lseek w.fd 0 Unix.SEEK_END);
    really_write w.fd b;
    let off = w.size in
    w.size <- w.size + Bytes.length b;
    off
  | Sealed _ | Closed -> invalid_arg "Blob.append: blob is sealed"

let size t =
  match t.state with
  | Writing w -> w.size
  | Sealed s -> s.size
  | Closed -> 0

let read t ~off ~len =
  if off < 0 || len < 0 || off + len > size t then
    invalid_arg
      (Printf.sprintf "Blob.read: extent (%d,%d) out of bounds (size %d)" off len
         (size t));
  match t.state with
  | Writing w ->
    ignore (Unix.lseek w.fd off Unix.SEEK_SET);
    let b = Bytes.create len in
    really_read w.fd b;
    b
  | Sealed s ->
    let b = Bytes.create len in
    for i = 0 to len - 1 do
      Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get s.map (off + i))
    done;
    b
  | Closed -> invalid_arg "Blob.read: blob is closed"

let le64_of_int n =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int n);
  b

let map fd size =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])

let mmap_readonly path size =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> map fd size)

let seal t ~index =
  match t.state with
  | Sealed _ -> ()
  | Closed -> invalid_arg "Blob.seal: blob is closed"
  | Writing w ->
    (* the epoch after the newest sealed now: another store sharing the
       directory may have sealed since [create] *)
    t.epoch <- (match sealed_epochs t.dir with [] -> 1 | ep :: _ -> ep + 1);
    let index_off = append t index in
    let index_len = Bytes.length index in
    ignore (Unix.lseek w.fd 0 Unix.SEEK_END);
    really_write w.fd (le64_of_int index_off);
    really_write w.fd (le64_of_int index_len);
    let cksum = Bytes.create 8 in
    Bytes.set_int64_le cksum 0 (fnv64 index);
    really_write w.fd cksum;
    really_write w.fd (le64_of_int t.epoch);
    really_write w.fd (Bytes.of_string magic);
    let size = w.size + trailer_len in
    Unix.fsync w.fd;
    (* map the file through its own descriptor before the rename, so the
       reads that follow see this blob's bytes whatever else lands on the
       epoch's name *)
    let map =
      Fun.protect ~finally:(fun () -> Unix.close w.fd) (fun () -> map w.fd size)
    in
    let final = epoch_file t.dir t.epoch in
    Sys.rename t.path final;
    t.path <- final;
    t.state <- Sealed { map; size; index_off; index_len }

let is_sealed t = match t.state with Sealed _ -> true | _ -> false
let epoch t = t.epoch
let path t = t.path

let index t =
  match t.state with
  | Sealed s -> Some (read t ~off:s.index_off ~len:s.index_len)
  | Writing _ | Closed -> None

let validate_and_open dir ep =
  let path = epoch_file dir ep in
  match Unix.stat path with
  | exception Unix.Unix_error _ -> None
  | st ->
    let size = st.Unix.st_size in
    if size < trailer_len then None
    else begin
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      let result =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            ignore (Unix.lseek fd (size - trailer_len) Unix.SEEK_SET);
            let tr = Bytes.create trailer_len in
            really_read fd tr;
            let g i = Int64.to_int (Bytes.get_int64_le tr (8 * i)) in
            let index_off = g 0
            and index_len = g 1
            and cksum = Bytes.get_int64_le tr 16
            and file_epoch = g 3 in
            if
              Bytes.sub_string tr 32 8 <> magic
              || index_off < 0 || index_len < 0
              || index_off + index_len > size - trailer_len
              || file_epoch <> ep
            then None
            else begin
              ignore (Unix.lseek fd index_off Unix.SEEK_SET);
              let idx = Bytes.create index_len in
              really_read fd idx;
              if fnv64 idx <> cksum then None
              else Some (index_off, index_len)
            end)
      in
      match result with
      | None -> None
      | Some (index_off, index_len) ->
        let map = mmap_readonly path size in
        Some
          {
            dir;
            state = Sealed { map; size; index_off; index_len };
            epoch = ep;
            path;
          }
    end

let open_latest ~dir =
  let rec first = function
    | [] -> None
    | ep :: rest -> (
      match validate_and_open dir ep with
      | exception _ -> first rest
      | None -> first rest
      | some -> some)
  in
  first (sealed_epochs dir)

(* An unsealed blob has no trailer and cannot be reopened: its file goes. *)
let close t =
  (match t.state with
  | Writing w -> (
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    try Sys.remove t.path with Sys_error _ -> ())
  | Sealed _ | Closed -> ());
  t.state <- Closed
