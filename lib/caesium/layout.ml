(** Memory layouts.

    A layout describes the size and alignment of a C object together with
    enough structure (field offsets, array strides) for the elaborator to
    compile member accesses, mirroring the role of [struct] declarations
    in Caesium.  The physical layout is all the C type system guarantees
    (§2.1); the RefinedC types refine values *stored at* these layouts. *)

type t =
  | Int of Int_type.t
  | Ptr  (** any pointer, 8 bytes *)
  | FnPtr  (** function pointer, 8 bytes *)
  | Struct of struct_layout
  | Array of t * int
  | Void  (** zero-size layout (function "returns void") *)

and field = { fld_name : string; fld_ofs : int; fld_layout : t }

and struct_layout = {
  sl_name : string;
  sl_fields : field list;
  sl_size : int;
  sl_align : int;
}
[@@deriving eq]

let rec size = function
  | Int it -> it.Int_type.size
  | Ptr | FnPtr -> 8
  | Struct sl -> sl.sl_size
  | Array (l, n) -> size l * n
  | Void -> 0

let rec align = function
  | Int it -> it.Int_type.size
  | Ptr | FnPtr -> 8
  | Struct sl -> sl.sl_align
  | Array (l, _) -> align l
  | Void -> 1

let round_up x a = (x + a - 1) / a * a

(** Build a struct layout with C-style padding: each field is placed at
    the next offset aligned for it; total size is rounded up to the
    struct's alignment.  Caesium's memory model "has less undefined
    behavior than ISO C with respect to e.g. padding in structs" (§3):
    padding bytes are ordinary uninitialized bytes. *)
let mk_struct name fields =
  let fields, last =
    List.fold_left
      (fun (acc, ofs) (fname, l) ->
        let ofs = round_up ofs (align l) in
        ({ fld_name = fname; fld_ofs = ofs; fld_layout = l } :: acc, ofs + size l))
      ([], 0) fields
  in
  let fields = List.rev fields in
  let al =
    List.fold_left (fun a f -> max a (align f.fld_layout)) 1 fields
  in
  { sl_name = name; sl_fields = fields; sl_size = round_up last al; sl_align = al }

let field_of sl name =
  List.find_opt (fun f -> f.fld_name = name) sl.sl_fields

let field_exn sl name =
  match field_of sl name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "no field %s in struct %s" name sl.sl_name)

module Enc = Rc_util.Enc

(** The structural encoding ({!Rc_util.Enc}): every layout in full —
    struct name, fields, offsets, size and alignment — wherever it
    occurs, so a layout edit always moves a key. *)
let rec enc w (l : t) =
  match l with
  | Int it ->
      Enc.tag w 'I';
      Int_type.enc w it
  | Ptr -> Enc.tag w 'P'
  | FnPtr -> Enc.tag w 'F'
  | Struct sl ->
      Enc.tag w 'S';
      enc_struct w sl
  | Array (l, n) ->
      Enc.tag w 'A';
      enc w l;
      Enc.enc_int w n
  | Void -> Enc.tag w 'V'

and enc_struct w (sl : struct_layout) =
  Enc.enc_str w sl.sl_name;
  Enc.enc_int w (List.length sl.sl_fields);
  enc_fields w sl.sl_fields;
  Enc.enc_int w sl.sl_size;
  Enc.enc_int w sl.sl_align

and enc_fields w = function
  | [] -> ()
  | f :: rest ->
      Enc.enc_str w f.fld_name;
      Enc.enc_int w f.fld_ofs;
      enc w f.fld_layout;
      enc_fields w rest

let rec pp ppf = function
  | Int it -> Int_type.pp ppf it
  | Ptr -> Fmt.string ppf "void*"
  | FnPtr -> Fmt.string ppf "fnptr"
  | Struct sl -> Fmt.pf ppf "struct %s" sl.sl_name
  | Array (l, n) -> Fmt.pf ppf "%a[%d]" pp l n
  | Void -> Fmt.string ppf "void"
