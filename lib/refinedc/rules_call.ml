(** Function calls (first-class, §3) and compare-and-swap (CAS-BOOL, §6). *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang
open Convert
open Rule_aux

let mk ~heads name prio apply : E.rule = { E.rname = name; prio; heads = Some heads; apply }

(* T-CALL: instantiate the callee's parameters with (sealed) evars, check
   the arguments left to right, then the preconditions — the order §5
   relies on for predictable evar instantiation — and assume the
   postcondition for fresh universals. *)
let t_call =
  mk ~heads:[ "call" ] "T-CALL" 5 (fun ri j ->
      match j with
      | FCall { spec; args; cont; _ } ->
          if List.length args <> List.length spec.fs_args then None
          else
            let env =
              List.map
                (fun (x, s) -> (x, ri.E.ri_evar ~hint:x s))
                spec.fs_params
            in
            let arg_goals g =
              List.fold_right2
                (fun (v, vty) tspec g ->
                  G.Wand
                    (intro_val ri.E.ri_env v vty, require_val ri.E.ri_env v (subst_rtype env tspec) g))
                args spec.fs_args g
            in
            let pre_goal g =
              require_hres_list ri.E.ri_env (List.map (subst_hres env) spec.fs_pre) g
            in
            let post_goal =
              let rec open_exists acc = function
                | [] ->
                    let env' = acc @ env in
                    let ret_ty = subst_rtype env' spec.fs_ret in
                    let v_r =
                      fresh_val ri ~hint:"ret" (value_sort ret_ty)
                    in
                    G.Wand
                      ( intro_val ri.E.ri_env v_r ret_ty,
                        G.Wand
                          ( intro_hres_list ri.E.ri_env
                              (List.map (subst_hres env') spec.fs_post),
                            cont v_r ret_ty ) )
                | (x, s) :: rest ->
                    G.All (x, s, fun t -> open_exists ((x, t) :: acc) rest)
              in
              open_exists [] spec.fs_exists
            in
            Some (arg_goals (pre_goal post_goal))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* CAS                                                                 *)
(* ------------------------------------------------------------------ *)

let const_bool (ty : rtype) : bool option =
  match ty with
  | TBool (_, phi) -> (
      match Simp.simp_prop phi with
      | PTrue -> Some true
      | PFalse -> Some false
      | _ -> None)
  | TInt (_, n) -> (
      match Simp.simp_term n with
      | Num 1 -> Some true
      | Num 0 -> Some false
      | _ -> None)
  | _ -> None

(* CAS-BOOL (Figure 6): the expected and desired values have singleton
   boolean types b₁ and b₂; failure flips the expected slot (the cell is
   a boolean, so differing from b₁ means ¬b₁); success exchanges the
   resources held by the atomic boolean. *)
(* If the CAS target is still folded inside a named type (e.g. a lock
   struct), unfold it in Δ first, then retry. *)
let t_cas_unfold =
  mk ~heads:[ "cas" ] "CAS-UNFOLD" 4 (fun ri j ->
      match j with
      | FCas ({ vobj; _ } as r) -> (
          let vobj = Simp.simp_term (ri.E.ri_resolve vobj) in
          let is_bool_cell = function
            | LocTy (l, TAtomicBool _) -> equal_term l vobj
            | _ -> false
          in
          if ri.E.ri_peek is_bool_cell <> None then None
          else
            let folded = function
              | LocTy (l, TNamed (n, _)) -> (
                  equal_term (loc_base l) (loc_base vobj)
                  &&
                  match find_type_def ri.E.ri_env n with
                  | Some { td_layout = Some _; _ } -> true
                  | _ -> false)
              | _ -> false
            in
            match ri.E.ri_peek folded with
            | None -> None
            | Some _ ->
                Some
                  (G.Find
                     {
                       descr = (fun () -> Fmt.str "%a ◁ₗ named (CAS unfold)" pp_term vobj);
                       pred = (fun _resolve a -> folded a);
                       cont =
                         (fun a ->
                           match a with
                           | LocTy (l, TNamed (n, args)) -> (
                               match unfold_named ri.E.ri_env n args with
                               | Some body ->
                                   G.Wand
                                     (intro_loc ri.E.ri_env l body, G.Basic (FCas r))
                               | None -> G.Star (G.LProp PFalse, G.True_))
                           | _ -> assert false);
                     }))
      | _ -> None)

let t_cas =
  mk ~heads:[ "cas" ] "CAS-BOOL" 5 (fun ri j ->
      match j with
      | FCas { it; vobj; vexp; tdes; cont; _ } -> (
          match const_bool tdes with
          | None -> None
          | Some b2 ->
              Some
                (G.Find
                   {
                     descr = (fun () -> Fmt.str "%a ◁ₗ atomicbool" pp_term vobj);
                     pred =
                       (fun resolve a ->
                         match a with
                         | LocTy (l, TAtomicBool _) ->
                             equal_term l (Simp.simp_term (resolve vobj))
                         | _ -> false);
                     cont =
                       (fun cell ->
                         match cell with
                         | LocTy (_, TAtomicBool (itc, _phi, ht, hf))
                           when Int_type.equal itc it ->
                             G.Find
                               {
                                 descr =
                                   (fun () ->
                                     Fmt.str "%a ◁ₗ bool (CAS expected)"
                                       pp_term vexp);
                                 pred =
                                   (fun resolve a ->
                                     match a with
                                     | LocTy (l, (TBool _ | TInt _)) ->
                                         equal_term l
                                           (Simp.simp_term (resolve vexp))
                                     | _ -> false);
                                 cont =
                                   (fun expected ->
                                     match expected with
                                     | LocTy (_, ety) -> (
                                         match const_bool ety with
                                         | None ->
                                             G.Star (G.LProp PFalse, G.True_)
                                         | Some b1 ->
                                             let bool_place b =
                                               LocTy
                                                 ( vexp,
                                                   TBool
                                                     ( it,
                                                       if b then PTrue
                                                       else PFalse ) )
                                             in
                                             let cell_with phi =
                                               LocTy
                                                 ( vobj,
                                                   TAtomicBool (it, phi, ht, hf)
                                                 )
                                             in
                                             let res b =
                                               ( bool_term
                                                   (if b then PTrue else PFalse),
                                                 TBool
                                                   ( Int_type.i32,
                                                     if b then PTrue
                                                     else PFalse ) )
                                             in
                                             let fail_branch =
                                               (* the cell held ¬b₁ *)
                                               G.wands
                                                 [
                                                   G.LAtom
                                                     (bool_place (not b1));
                                                   G.LAtom
                                                     (cell_with
                                                        (if b1 then PFalse
                                                         else PTrue));
                                                 ]
                                                 (let v, t = res false in
                                                  cont v t)
                                             in
                                             let succ_branch =
                                               (* receive the resources of
                                                  state b₁, provide those of
                                                  state b₂ *)
                                               G.Wand
                                                 ( intro_hres_list ri.E.ri_env
                                                     (if b1 then ht else hf),
                                                   G.Wand
                                                     ( G.LAtom (bool_place b1),
                                                       require_hres_list ri.E.ri_env
                                                         (if b2 then ht else hf)
                                                         (G.Wand
                                                            ( G.LAtom
                                                                (cell_with
                                                                   (if b2 then
                                                                      PTrue
                                                                    else
                                                                      PFalse)),
                                                              let v, t =
                                                                res true
                                                              in
                                                              cont v t )) ) )
                                             in
                                             G.AndG
                                               [
                                                 ( Some "case: CAS fails",
                                                   fail_branch );
                                                 ( Some "case: CAS succeeds",
                                                   succ_branch );
                                               ])
                                     | _ -> assert false);
                               }
                         | _ -> G.Star (G.LProp PFalse, G.True_));
                   }))
      | _ -> None)

let all : E.rule list = [ t_call; t_cas_unfold; t_cas ]
