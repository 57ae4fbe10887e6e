(** Parser for the RefinedC annotation language — the payloads of
    [[rc::…]] attributes: pure terms and propositions (with the paper's
    unicode notation: ≤ ≠ ∅ ⊎ ∈ ∀ → … and ASCII alternates), refinement
    types, parameter declarations, and pre/postcondition items. *)

open Rc_pure
open Rc_pure.Term
open Rc_refinedc.Rtype
module Int_type = Rc_caesium.Int_type
module Layout = Rc_caesium.Layout

exception Spec_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Spec_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type tok = I of string | N of int | P of string  (** punct, normalized *)

let utf8_puncts =
  [
    ("\xe2\x89\xa4", "<=");  (* ≤ *)
    ("\xe2\x89\xa5", ">=");  (* ≥ *)
    ("\xe2\x89\xa0", "!=");  (* ≠ *)
    ("\xe2\x88\x85", "EMPTY");  (* ∅ *)
    ("\xe2\x8a\x8e", "MUNION");  (* ⊎ *)
    ("\xe2\x88\xaa", "UNION");  (* ∪ *)
    ("\xe2\x88\x96", "SETDIFF");  (* ∖ *)
    ("\xe2\x88\x88", "in");  (* ∈ *)
    ("\xe2\x88\x80", "forall");  (* ∀ *)
    ("\xe2\x88\x83", "exists");  (* ∃ *)
    ("\xe2\x86\x92", "->");  (* → *)
    ("\xe2\x88\xa7", "&&");  (* ∧ *)
    ("\xe2\x88\xa8", "||");  (* ∨ *)
    ("\xc2\xac", "!");  (* ¬ *)
  ]

(* [u] occurs in [s] at [i] *)
let occurs_at s i u =
  let l = String.length u in
  i + l <= String.length s
  &&
  let rec go k = k = l || (s.[i + k] = u.[k] && go (k + 1)) in
  go 0

(* the ASCII operators, two characters before one *)
let ascii_punct s i : string option =
  let c = s.[i] in
  let c2 = if i + 1 < String.length s then s.[i + 1] else '\000' in
  match (c, c2) with
  | '<', '=' -> Some "<="
  | '>', '=' -> Some ">="
  | '=', '=' -> Some "=="
  | '!', '=' -> Some "!="
  | '-', '>' -> Some "->"
  | '&', '&' -> Some "&&"
  | '|', '|' -> Some "||"
  | '+', '+' -> Some "++"
  | ':', ':' -> Some "::"
  | '{', '[' -> Some "{["
  | ']', '}' -> Some "]}"
  | '[', ']' -> Some "[]"
  | '(', _ -> Some "("
  | ')', _ -> Some ")"
  | '{', _ -> Some "{"
  | '}', _ -> Some "}"
  | '[', _ -> Some "["
  | ']', _ -> Some "]"
  | '<', _ -> Some "<"
  | '>', _ -> Some ">"
  | '=', _ -> Some "="
  | '+', _ -> Some "+"
  | '-', _ -> Some "-"
  | '*', _ -> Some "*"
  | '/', _ -> Some "/"
  | '%', _ -> Some "%"
  | ',', _ -> Some ","
  | ':', _ -> Some ":"
  | '@', _ -> Some "@"
  | '?', _ -> Some "?"
  | '!', _ -> Some "!"
  | '.', _ -> Some "."
  | ';', _ -> Some ";"
  | '&', _ -> Some "&"
  | _ -> None

let tokenize (s : string) : tok list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let is_id c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let is_idc c = is_id c || (c >= '0' && c <= '9') || c = '\'' in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_id c then begin
      let start = !i in
      while !i < n && is_idc s.[!i] do
        incr i
      done;
      toks := I (String.sub s start (!i - start)) :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      let lit = String.sub s start (!i - start) in
      match int_of_string_opt lit with
      | Some n -> toks := N n :: !toks
      | None -> fail "integer literal %s out of range in specification %S" lit s
    end
    else begin
      (* utf8 symbols: every one starts with a byte past ASCII *)
      let matched =
        if c >= '\x80' then
          List.find_opt (fun (u, _) -> occurs_at s !i u) utf8_puncts
        else None
      in
      match matched with
      | Some (u, norm) ->
          i := !i + String.length u;
          let word =
            String.length norm > 0 && norm.[0] >= 'a' && norm.[0] <= 'z'
          in
          toks := (if word then I norm else P norm) :: !toks
      | None when occurs_at s !i "..." ->
          (* the struct-body placeholder of rc::ptr_type (Figure 3) *)
          i := !i + 3;
          toks := I "__structbody" :: !toks
      | None -> (
          match ascii_punct s !i with
          | Some p ->
              i := !i + String.length p;
              toks := P p :: !toks
          | None -> fail "unexpected character %C in specification %S" c s)
    end
  done;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser state                                                        *)
(* ------------------------------------------------------------------ *)

type env = {
  vars : (string * Sort.t) list;  (** in-scope logical variables *)
  structs : (string, Layout.struct_layout) Hashtbl.t;
  fn_specs : (string, fn_spec) Hashtbl.t;  (** for fnptr<f> *)
  tenv : Rc_refinedc.Rtype.tenv;  (** session named-type definitions *)
}

type pstate = { mutable toks : tok list; env : env }

let peek st = match st.toks with [] -> None | t :: _ -> Some t
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let eat_p st p =
  match peek st with
  | Some (P q) when q = p ->
      advance st;
      true
  | _ -> false

let expect_p st p =
  if not (eat_p st p) then fail "expected '%s' in specification" p

let expect_id st =
  match peek st with
  | Some (I x) ->
      advance st;
      x
  | _ -> fail "expected identifier in specification"

let save st = st.toks
let restore st toks = st.toks <- toks

let var_sort st x =
  match List.assoc_opt x st.env.vars with
  | Some s -> s
  | None -> fail "unknown specification variable %s" x

(* ------------------------------------------------------------------ *)
(* Sorts                                                               *)
(* ------------------------------------------------------------------ *)

let parse_sort_text (s : string) : Sort.t =
  let s = String.trim s in
  let s =
    if String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}'
    then String.trim (String.sub s 1 (String.length s - 2))
    else s
  in
  match Sort.of_string s with
  | Some so -> so
  | None -> (
      match String.split_on_char ' ' s with
      | [ "list"; e ] -> (
          match Sort.of_string e with
          | Some se -> Sort.List se
          | None -> fail "unknown sort %S" s)
      | _ -> fail "unknown sort %S" s)

(** "x: sort" declarations (rc::parameters / rc::exists / rc::refined_by) *)
let parse_binder (s : string) : string * Sort.t =
  match String.index_opt s ':' with
  | None -> fail "expected \"name: sort\" in %S" s
  | Some i ->
      let name = String.trim (String.sub s 0 i) in
      let sort =
        parse_sort_text (String.sub s (i + 1) (String.length s - i - 1))
      in
      (name, sort)

(* ------------------------------------------------------------------ *)
(* Terms and propositions                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_prop st : prop =
  match peek st with
  | Some (I ("forall" | "exists" as q)) ->
      advance st;
      let x = expect_id st in
      let sort =
        if eat_p st ":" then (
          let sname = expect_id st in
          match Sort.of_string sname with
          | Some s -> s
          | None -> fail "unknown sort %s" sname)
        else Sort.Int
      in
      expect_p st ",";
      let env = { st.env with vars = (x, sort) :: st.env.vars } in
      let st' = { st with env } in
      st'.toks <- st.toks;
      let body = parse_prop st' in
      st.toks <- st'.toks;
      if q = "forall" then PForall (x, sort, body) else PExists (x, sort, body)
  | _ -> parse_imp st

and parse_imp st : prop =
  let lhs = parse_or st in
  if eat_p st "->" then PImp (lhs, parse_imp st) else lhs

and parse_or st : prop =
  let lhs = ref (parse_and st) in
  while eat_p st "||" do
    lhs := POr (!lhs, parse_and st)
  done;
  !lhs

and parse_and st : prop =
  let lhs = ref (parse_cmp st) in
  while eat_p st "&&" do
    lhs := PAnd (!lhs, parse_cmp st)
  done;
  !lhs

and parse_cmp st : prop =
  match peek st with
  | Some (P "!") ->
      advance st;
      PNot (parse_cmp st)
  | Some (I "true") when st.toks |> List.length = 1 || true ->
      (* [true]/[false] as propositions only when not followed by an
         operator that would make them terms — they are not terms here *)
      advance st;
      PTrue
  | Some (I "false") ->
      advance st;
      PFalse
  | Some (P "(") -> (
      (* could be a parenthesized proposition or a term *)
      let snap = save st in
      match parse_prop_paren st with
      | Some p -> p
      | None ->
          restore st snap;
          parse_relation st)
  | _ -> parse_relation st

and parse_prop_paren st : prop option =
  if not (eat_p st "(") then None
  else
    match parse_prop st with
    | p -> (
        match peek st with
        | Some (P ")") ->
            advance st;
            (* reject if this parse consumed a bare term only and the next
               token continues a term (e.g. "(a + b) - c"); "?" stays
               accepted: "(φ) ? t₁ : t₂" is a valid ternary *)
            (match (p, peek st) with
            | _, Some (P ("+" | "-" | "*" | "/" | "%" | "@")) -> None
            | _ -> Some p)
        | _ -> None)
    | exception Spec_error _ -> None

and parse_relation st : prop =
  let lhs = parse_term st in
  match peek st with
  | Some (P "=") | Some (P "==") ->
      advance st;
      PEq (lhs, parse_term st)
  | Some (P "!=") ->
      advance st;
      p_ne lhs (parse_term st)
  | Some (P "<=") ->
      advance st;
      PLe (lhs, parse_term st)
  | Some (P "<") ->
      advance st;
      PLt (lhs, parse_term st)
  | Some (P ">=") ->
      advance st;
      p_ge lhs (parse_term st)
  | Some (P ">") ->
      advance st;
      p_gt lhs (parse_term st)
  | Some (I "in") ->
      advance st;
      PIn (lhs, parse_term st)
  | _ -> (
      (* a boolean-sorted term as a proposition *)
      match lhs with
      | TProp p -> p
      | t when sort_of t = Sort.Bool -> PIsTrue t
      | _ -> fail "expected a proposition")

and parse_term st : term = parse_cons st

and parse_cons st : term =
  let lhs = parse_append st in
  if eat_p st "::" then Cons (lhs, parse_cons st) else lhs

and parse_append st : term =
  let lhs = ref (parse_union st) in
  while eat_p st "++" do
    lhs := Append (!lhs, parse_union st)
  done;
  !lhs

and parse_union st : term =
  let lhs = ref (parse_add st) in
  let rec go () =
    if eat_p st "MUNION" then begin
      lhs := MsUnion (!lhs, parse_add st);
      go ()
    end
    else if eat_p st "UNION" then begin
      lhs := SetUnion (!lhs, parse_add st);
      go ()
    end
    else if eat_p st "SETDIFF" then begin
      lhs := SetDiff (!lhs, parse_add st);
      go ()
    end
  in
  go ();
  !lhs

and parse_add st : term =
  let lhs = ref (parse_mul st) in
  let rec go () =
    match peek st with
    | Some (P "+") ->
        advance st;
        lhs := Add (!lhs, parse_mul st);
        go ()
    | Some (P "-") ->
        advance st;
        lhs := Sub (!lhs, parse_mul st);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_mul st : term =
  let lhs = ref (parse_prim st) in
  let rec go () =
    match peek st with
    | Some (P "*") ->
        advance st;
        lhs := Mul (!lhs, parse_prim st);
        go ()
    | Some (P "/") ->
        advance st;
        lhs := Div (!lhs, parse_prim st);
        go ()
    | Some (P "%") ->
        advance st;
        lhs := Mod (!lhs, parse_prim st);
        go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_prim st : term =
  match peek st with
  | Some (N n) ->
      advance st;
      Num n
  | Some (P "EMPTY") ->
      advance st;
      MsEmpty  (* sort-corrected to SetEmpty on demand by callers *)
  | Some (P "{[") ->
      advance st;
      let t = parse_term st in
      expect_p st "]}";
      MsSingleton t
  | Some (P "[]") ->
      advance st;
      Nil Sort.Int
  | Some (P "{") ->
      (* embedded proposition as a boolean term *)
      advance st;
      let p = parse_prop st in
      expect_p st "}";
      TProp p
  | Some (P "(") -> (
      advance st;
      (* could be (term), or a ternary (prop ? t : t) *)
      let snap = save st in
      match
        let p = parse_prop st in
        if eat_p st "?" then Some p else None
      with
      | Some p ->
          let t1 = parse_term st in
          expect_p st ":";
          let t2 = parse_term st in
          expect_p st ")";
          Ite (p, t1, t2)
      | None | (exception Spec_error _) ->
          restore st snap;
          let t = parse_term st in
          expect_p st ")";
          t)
  | Some (I "sizeof") ->
      advance st;
      expect_p st "(";
      (match peek st with
      | Some (I "struct") -> advance st
      | _ -> ());
      let name = expect_id st in
      expect_p st ")";
      (match Hashtbl.find_opt st.env.structs name with
      | Some sl -> Num sl.Layout.sl_size
      | None -> fail "sizeof of unknown struct %s" name)
  | Some (I "length") ->
      advance st;
      Length (parse_prim st)
  | Some (I ("min" | "max" as f)) when st.toks <> [] ->
      advance st;
      expect_p st "(";
      let a = parse_term st in
      expect_p st ",";
      let b = parse_term st in
      expect_p st ")";
      if f = "min" then Min (a, b) else Max (a, b)
  | Some (I "replicate") ->
      advance st;
      let n = parse_prim st in
      let x = parse_prim st in
      Replicate (n, x)
  | Some (I "nth") ->
      advance st;
      let d = parse_prim st in
      let i = parse_prim st in
      let l = parse_prim st in
      NthDflt (d, i, l)
  | Some (I "insert") ->
      advance st;
      let i = parse_prim st in
      let x = parse_prim st in
      let l = parse_prim st in
      SetListInsert (i, x, l)
  | Some (I "NULL") ->
      advance st;
      NullLoc
  | Some (I x) -> (
      advance st;
      match peek st with
      | Some (P "(") ->
          advance st;
          let args = ref [] in
          if not (eat_p st ")") then begin
            let rec go () =
              args := parse_term st :: !args;
              if eat_p st "," then go () else expect_p st ")"
            in
            go ()
          end;
          App (x, List.rev !args)
      | _ -> Var (x, var_sort st x))
  | _ -> fail "expected a term"

(* ------------------------------------------------------------------ *)
(* Set/multiset disambiguation                                         *)
(* ------------------------------------------------------------------ *)

(** The lexer cannot tell [∅]/[{[x]}] of multisets from sets; fix up a
    term to the expected sort. *)
let rec to_set (t : term) : term =
  match t with
  | MsEmpty -> SetEmpty
  | MsSingleton x -> SetSingleton x
  | MsUnion (a, b) | SetUnion (a, b) -> SetUnion (to_set a, to_set b)
  | SetDiff (a, b) -> SetDiff (to_set a, to_set b)
  | Ite (p, a, b) -> Ite (p, to_set a, to_set b)
  | _ -> t

let coerce_sort (expected : Sort.t) (t : term) : term =
  match expected with Sort.Set -> to_set t | _ -> t

let rec coerce_prop_sorts (p : prop) : prop =
  (* fix ∅ comparisons against set-sorted variables *)
  match p with
  | PEq (a, b) when sort_of a = Sort.Set -> PEq (a, to_set b)
  | PEq (a, b) when sort_of b = Sort.Set -> PEq (to_set a, b)
  | PNot q -> PNot (coerce_prop_sorts q)
  | PAnd (a, b) -> PAnd (coerce_prop_sorts a, coerce_prop_sorts b)
  | POr (a, b) -> POr (coerce_prop_sorts a, coerce_prop_sorts b)
  | PImp (a, b) -> PImp (coerce_prop_sorts a, coerce_prop_sorts b)
  | PForall (x, s, q) -> PForall (x, s, coerce_prop_sorts q)
  | PExists (x, s, q) -> PExists (x, s, coerce_prop_sorts q)
  | PIn (a, b) when sort_of b = Sort.Set -> PIn (a, b)
  | p -> p

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let int_type_of_name (s : string) : Int_type.t =
  match Int_type.of_name s with
  | it -> it
  | exception Not_found -> fail "unknown integer type %s" s

(** Collect tokens up to the matching '>' (for int<…> names that contain
    spaces, e.g. int<unsigned long>). *)
let parse_angle_name st : string =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some (P ">") -> advance st
    | Some (I x) ->
        advance st;
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf x;
        go ()
    | _ -> fail "expected integer type name"
  in
  go ();
  Buffer.contents buf

let rec parse_type st : rtype =
  (* refinement prefix: TERM '@' base  or  '{' PROP '}' '@' base *)
  let snap = save st in
  match
    let refn =
      match peek st with
      | Some (P "{") ->
          advance st;
          let p = parse_prop st in
          expect_p st "}";
          `Prop p
      | _ -> `Term (parse_term st)
    in
    if eat_p st "@" then Some refn else None
  with
  | Some refn -> parse_base_type st ~refn:(Some refn)
  | None | (exception Spec_error _) ->
      restore st snap;
      parse_base_type st ~refn:None

and parse_base_type st ~refn : rtype =
  match peek st with
  | Some (I "int") ->
      advance st;
      expect_p st "<";
      let it = int_type_of_name (parse_angle_name st) in
      (match refn with
      | Some (`Term t) -> TInt (it, t)
      | Some (`Prop _) -> fail "int refinement must be a term"
      | None -> t_int_ex it)
  | Some (I "bool") ->
      advance st;
      let it =
        if eat_p st "<" then int_type_of_name (parse_angle_name st)
        else Int_type.bool_it
      in
      (match refn with
      | Some (`Prop p) -> TBool (it, p)
      | Some (`Term (TProp p)) -> TBool (it, p)
      | Some (`Term t) -> TBool (it, PIsTrue t)
      | None -> TExists ("b", Sort.Bool, fun b -> TBool (it, PIsTrue b)))
  | Some (I "null") ->
      advance st;
      TNull
  | Some (I "ptr") ->
      advance st;
      (* a bare pointer value, no ownership: [l @ ptr] or unrefined *)
      (match refn with
      | Some (`Term l) -> TPtrV l
      | Some (`Prop _) -> fail "ptr refinement must be a location"
      | None -> TExists ("l", Sort.Loc, fun l -> TPtrV l))
  | Some (P "&") ->
      advance st;
      (match peek st with
      | Some (I "own") ->
          advance st;
          expect_p st "<";
          let t = parse_type st in
          expect_p st ">";
          let l =
            match refn with
            | Some (`Term l) -> Some l
            | Some (`Prop _) -> fail "&own refinement must be a location"
            | None -> None
          in
          TOwn (l, t)
      | _ -> fail "expected 'own' after '&'")
  | Some (I "uninit") ->
      advance st;
      expect_p st "<";
      let n = parse_term st in
      expect_p st ">";
      TUninit n
  | Some (I "optional") ->
      advance st;
      expect_p st "<";
      let t1 = parse_type st in
      expect_p st ",";
      let t2 = parse_type st in
      expect_p st ">";
      let phi =
        match refn with
        | Some (`Prop p) -> p
        | Some (`Term (TProp p)) -> p
        | Some (`Term t) -> PIsTrue t
        | None -> fail "optional requires a refinement"
      in
      TOptional (coerce_prop_sorts phi, t1, t2)
  | Some (I "wand") ->
      advance st;
      expect_p st "<";
      expect_p st "{";
      let l = parse_term st in
      expect_p st ":";
      let hole_ty = parse_type st in
      expect_p st "}";
      expect_p st ",";
      let out = parse_type st in
      expect_p st ">";
      if refn <> None then fail "wand types are not refined";
      TWand (LocTy (l, hole_ty), out)
  | Some (I "array") ->
      advance st;
      expect_p st "<";
      (match peek st with
      | Some (I "int") -> (
          advance st;
          expect_p st "<";
          let it = int_type_of_name (parse_angle_name st) in
          expect_p st ",";
          let len = parse_term st in
          expect_p st ",";
          let xs = parse_term st in
          expect_p st ">";
          ignore refn;
          TArrayInt (it, len, xs))
      | _ -> fail "array<int<it>, len, cells> expected")
  | Some (I "fnptr") ->
      advance st;
      expect_p st "<";
      let f = expect_id st in
      expect_p st ">";
      (match Hashtbl.find_opt st.env.fn_specs f with
      | Some spec -> TFnPtr spec
      | None -> fail "fnptr<%s>: unknown function" f)
  | Some (I "padded") ->
      advance st;
      expect_p st "<";
      let t = parse_type st in
      expect_p st ",";
      let n = parse_term st in
      expect_p st ">";
      TPadded (t, n)
  | Some (I "__structbody") ->
      advance st;
      TNamed ("__structbody", [])
  | Some (I name) -> (
      advance st;
      (* a named (user-defined) type; the refinement becomes the last
         argument *)
      match Rc_refinedc.Rtype.find_type_def st.env.tenv name with
      | None -> fail "unknown type %s" name
      | Some td ->
          let sort_of_last =
            match List.rev td.td_params with
            | (_, s) :: _ -> s
            | [] -> Sort.Int
          in
          let args =
            match refn with
            | Some (`Term t) -> [ coerce_sort sort_of_last t ]
            | Some (`Prop p) -> [ TProp p ]
            | None -> fail "type %s requires a refinement" name
          in
          TNamed (name, args))
  | _ -> fail "expected a type"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let with_state env s f =
  let st = { toks = tokenize s; env } in
  let r = f st in
  (match st.toks with
  | [] -> ()
  | _ -> fail "trailing tokens in specification %S" s);
  r

let term ~env s = with_state env s parse_term
let prop ~env s = with_state env s (fun st -> coerce_prop_sorts (parse_prop st))
let rtype ~env s = with_state env s parse_type
let binder = parse_binder

(** rc::requires / rc::ensures items: "{prop}" or "own LOC : TYPE". *)
let hres_item ~env (s : string) : hres =
  let st = { toks = tokenize s; env } in
  match peek st with
  | Some (I "own") ->
      advance st;
      let l = parse_term st in
      expect_p st ":";
      let t = parse_type st in
      (match st.toks with [] -> () | _ -> fail "trailing tokens in %S" s);
      HAtom (LocTy (l, t))
  | _ -> (
      match with_state env s (fun st ->
          match peek st with
          | Some (P "{") ->
              advance st;
              let p = parse_prop st in
              expect_p st "}";
              p
          | _ -> parse_prop st)
      with
      | p -> HProp (coerce_prop_sorts p))

(** rc::tactics("all: multiset_solver.") → solver names *)
let tactics_item (s : string) : string list =
  let s = String.trim s in
  let s =
    match String.index_opt s ':' with
    | Some i when String.length s > 4 && String.sub s 0 3 = "all" ->
        String.sub s (i + 1) (String.length s - i - 1)
    | _ -> s
  in
  String.split_on_char ',' s
  |> List.map (fun x ->
         let x = String.trim x in
         if String.length x > 0 && x.[String.length x - 1] = '.' then
           String.trim (String.sub x 0 (String.length x - 1))
         else x)
  |> List.filter (fun x -> x <> "")

(** rc::inv_vars("x:" "TYPE…"): variable name and its type. *)
let inv_var ~env (s : string) : string * rtype =
  let st = { toks = tokenize s; env } in
  let x = expect_id st in
  expect_p st ":";
  let t = parse_type st in
  (match st.toks with [] -> () | _ -> fail "trailing tokens in %S" s);
  (x, t)
