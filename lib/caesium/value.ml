(** Runtime values as byte sequences.

    Caesium represents values at the level of representation bytes (§3:
    "access to representation bytes", "uninitialized memory with poison
    semantics").  A byte is either poison (uninitialized), a concrete
    numeric byte, or the i-th fragment of a pointer (so that pointers keep
    their provenance even when copied bytewise, à la CompCert). *)

type byte =
  | Poison
  | Byte of int  (** 0..255 *)
  | PtrFrag of Loc.t * int  (** i-th byte of a pointer *)
  | FnFrag of string * int  (** i-th byte of a function pointer *)
[@@deriving eq]

type t = byte list [@@deriving eq]

let poison n : t = List.init n (fun _ -> Poison)

(* ------------------------------------------------------------------ *)
(* Integers                                                            *)
(* ------------------------------------------------------------------ *)

(** Little-endian two's-complement encoding. *)
let of_int (it : Int_type.t) (v : int) : t =
  List.init it.size (fun i -> Byte ((v asr (8 * i)) land 0xff))

let to_int (it : Int_type.t) (bytes : t) : int option =
  if List.length bytes <> it.size then None
  else
    let rec go i acc = function
      | [] -> Some acc
      | Byte b :: rest -> go (i + 1) (acc lor (b lsl (8 * i))) rest
      | _ -> None
    in
    match go 0 0 bytes with
    | None -> None
    | Some raw ->
        if Int_type.is_signed it && it.size < 8 then
          let m = 1 lsl (Int_type.bits it) in
          Some (if raw >= m / 2 then raw - m else raw)
        else Some raw

(* ------------------------------------------------------------------ *)
(* Pointers                                                            *)
(* ------------------------------------------------------------------ *)

let of_loc (l : Loc.t) : t =
  match l with
  | Loc.Null -> List.init 8 (fun _ -> Byte 0)
  | _ -> List.init 8 (fun i -> PtrFrag (l, i))

let of_fn (name : string) : t = List.init 8 (fun i -> FnFrag (name, i))

let to_loc (bytes : t) : Loc.t option =
  if List.length bytes <> 8 then None
  else if List.for_all (function Byte 0 -> true | _ -> false) bytes then
    Some Loc.Null
  else
    match bytes with
    | PtrFrag (l, 0) :: rest ->
        let ok =
          List.for_all2
            (fun b i ->
              match b with PtrFrag (l', j) -> Loc.equal l l' && j = i | _ -> false)
            rest
            [ 1; 2; 3; 4; 5; 6; 7 ]
        in
        if ok then Some l else None
    | _ -> None

let to_fn (bytes : t) : string option =
  match bytes with
  | FnFrag (f, 0) :: rest when List.length rest = 7 ->
      if
        List.for_all2
          (fun b i -> match b with FnFrag (f', j) -> f' = f && j = i | _ -> false)
          rest
          [ 1; 2; 3; 4; 5; 6; 7 ]
      then Some f
      else None
  | _ -> None

let has_poison (bytes : t) = List.exists (function Poison -> true | _ -> false)
    bytes

let pp ppf (v : t) =
  match to_loc v with
  | Some l -> Loc.pp ppf l
  | None -> (
      match to_fn v with
      | Some f -> Fmt.pf ppf "&%s" f
      | None ->
          if has_poison v then Fmt.string ppf "poison"
          else
            Fmt.pf ppf "[%a]"
              Fmt.(
                list ~sep:sp (fun ppf b ->
                    match b with
                    | Byte b -> Fmt.pf ppf "%02x" b
                    | Poison -> Fmt.string ppf "??"
                    | PtrFrag (l, i) -> Fmt.pf ppf "%a.%d" Loc.pp l i
                    | FnFrag (f, i) -> Fmt.pf ppf "%s.%d" f i))
              v)
