(** Statement and control-flow rules: block sequencing, assignments,
    calls as statements, conditionals (IF-BOOL / IF-INT of Figure 6),
    switches, gotos with loop invariants, and returns. *)

open Rc_pure
open Rc_pure.Term
module G = Rc_lithium.Goal
module Syntax = Rc_caesium.Syntax
module Int_type = Rc_caesium.Int_type
open Rtype
open Lang
open Convert
open Rule_aux

let mk ~heads name prio apply : E.rule = { E.rname = name; prio; heads = Some heads; apply }

let loc_of (v : term) (ty : rtype) : term =
  match ty with TPtrV l -> l | TNull -> NullLoc | _ -> v

let next_stmt sigma label idx : goal =
  G.Basic (FBlock { sigma; label; idx = idx + 1 })

let goto_goal sigma target : goal = G.Basic (FGoto { sigma; target })

let block_label sigma target = block_descr sigma.fc_index target

(** Resolve the callee of a [Call] statement when it is a direct call. *)
let direct_callee sigma (fn : Syntax.expr) : fn_spec option =
  match fn with
  | Syntax.FnAddr f | Syntax.VarLoc f -> List.assoc_opt f sigma.fc_specs
  | _ -> None

(* ------------------------------------------------------------------ *)
(* ⊢STMT                                                               *)
(* ------------------------------------------------------------------ *)

let t_block =
  mk ~heads:[ "stmt" ] "T-STMT" 5 (fun ri j ->
      match j with
      | FBlock { sigma; label; idx } -> (
          match block_entry sigma.fc_index label with
          | None | Some { be_block = None; _ } -> None
          | Some ({ be_block = Some block; be_stmts; _ } as e) ->
              if idx < Array.length be_stmts then
                let src = entry_stmt_loc e idx in
                let s = be_stmts.(idx) in
                let continue = next_stmt sigma label idx in
                match s with
                | Syntax.Skip -> Some continue
                | Syntax.ExprStmt e ->
                    Some
                      (G.Basic
                         (FExpr { sigma; expr = e; cont = (fun _ _ -> continue) }))
                | Syntax.Assign { atomic; layout; lhs; rhs } ->
                    Some
                      (G.Basic
                         (FExpr
                            {
                              sigma;
                              expr = rhs;
                              cont =
                                (fun v vty ->
                                  G.Basic
                                    (FExpr
                                       {
                                         sigma;
                                         expr = lhs;
                                         cont =
                                           (fun lv lty ->
                                             G.Basic
                                               (FWriteLoc
                                                  {
                                                    loc_term =
                                                      Simp.simp_term
                                                        (loc_of lv lty);
                                                    layout;
                                                    atomic;
                                                    v;
                                                    vty;
                                                    cont = continue;
                                                    src;
                                                  }));
                                       }));
                            }))
                | Syntax.Call { dest; fn; args } ->
                    let with_spec spec args_vals =
                      G.Basic
                        (FCall
                           {
                             spec;
                             args = List.rev args_vals;
                             cont =
                               (fun rv rty ->
                                 match dest with
                                 | None -> continue
                                 | Some (dl, de) ->
                                     G.Basic
                                       (FExpr
                                          {
                                            sigma;
                                            expr = de;
                                            cont =
                                              (fun lv lty ->
                                                G.Basic
                                                  (FWriteLoc
                                                     {
                                                       loc_term =
                                                         Simp.simp_term
                                                           (loc_of lv lty);
                                                       layout = dl;
                                                       atomic = false;
                                                       v = rv;
                                                       vty = rty;
                                                       cont = continue;
                                                       src;
                                                     }));
                                          }));
                             src;
                           })
                    in
                    let rec eval_args spec acc = function
                      | [] -> with_spec spec acc
                      | (_, e) :: rest ->
                          G.Basic
                            (FExpr
                               {
                                 sigma;
                                 expr = e;
                                 cont =
                                   (fun v ty ->
                                     eval_args spec ((v, ty) :: acc) rest);
                               })
                    in
                    (match direct_callee sigma fn with
                    | Some spec -> Some (eval_args spec [] args)
                    | None ->
                        (* indirect call through a function pointer *)
                        Some
                          (G.Basic
                             (FExpr
                                {
                                  sigma;
                                  expr = fn;
                                  cont =
                                    (fun fv fty ->
                                      match fty with
                                      | TFnPtr spec -> eval_args spec [] args
                                      | TPtrV w ->
                                          (* look the spec up in Δ *)
                                          G.Find
                                            {
                                              descr =
                                                (fun () ->
                                                  Fmt.str "%a ◁ᵥ fn" pp_term w);
                                              pred =
                                                (fun resolve a ->
                                                  match a with
                                                  | ValTy (w', TFnPtr _) ->
                                                      equal_term
                                                        (resolve w) w'
                                                  | _ -> false);
                                              cont =
                                                (function
                                                | ValTy (_, TFnPtr spec) as a
                                                  ->
                                                    G.Wand
                                                      ( G.LAtom a,
                                                        eval_args spec [] args
                                                      )
                                                | _ -> assert false);
                                            }
                                      | _ ->
                                          ignore fv;
                                          (* not callable: unsolvable goal *)
                                          G.Star (G.LProp PFalse, G.True_));
                                })))
                | Syntax.Cas { layout; obj; expected; desired; dest } -> (
                    match layout with
                    | Rc_caesium.Layout.Int it ->
                        Some
                          (G.Basic
                             (FExpr
                                {
                                  sigma;
                                  expr = obj;
                                  cont =
                                    (fun vo tyo ->
                                      G.Basic
                                        (FExpr
                                           {
                                             sigma;
                                             expr = expected;
                                             cont =
                                               (fun ve tye ->
                                                 G.Basic
                                                   (FExpr
                                                      {
                                                        sigma;
                                                        expr = desired;
                                                        cont =
                                                          (fun vd tyd ->
                                                            G.Basic
                                                              (FCas
                                                                 {
                                                                   it;
                                                                   vobj =
                                                                     loc_of vo
                                                                       tyo;
                                                                   tobj = tyo;
                                                                   vexp =
                                                                     loc_of ve
                                                                       tye;
                                                                   texp = tye;
                                                                   vdes = vd;
                                                                   tdes = tyd;
                                                                   cont =
                                                                     (fun rv
                                                                          rty ->
                                                                       match
                                                                         dest
                                                                       with
                                                                       | None
                                                                         ->
                                                                           continue
                                                                       | Some
                                                                           ( dl,
                                                                             de
                                                                           ) ->
                                                                           G
                                                                           .Basic
                                                                             (FExpr
                                                                                {
                                                                                  sigma;
                                                                                  expr =
                                                                                    de;
                                                                                  cont =
                                                                                    (fun
                                                                                      lv
                                                                                      lty
                                                                                    ->
                                                                                      G
                                                                                      .Basic
                                                                                        (FWriteLoc
                                                                                           {
                                                                                             loc_term =
                                                                                               Simp
                                                                                               .simp_term
                                                                                                 (loc_of
                                                                                                    lv
                                                                                                    lty);
                                                                                             layout =
                                                                                               dl;
                                                                                             atomic =
                                                                                               false;
                                                                                             v =
                                                                                               rv;
                                                                                             vty =
                                                                                               rty;
                                                                                             cont =
                                                                                               continue;
                                                                                             src;
                                                                                           }));
                                                                                }));
                                                                   src;
                                                                 }));
                                                      }));
                                           }));
                                }))
                    | _ -> None)
                | Syntax.Free e ->
                    (* frontend-internal deallocation of a heap object the
                       function owns: consume the (arbitrary) ownership *)
                    Some
                      (G.Basic
                         (FExpr
                            {
                              sigma;
                              expr = e;
                              cont =
                                (fun v ty ->
                                  G.Find
                                    {
                                      descr =
                                        (fun () ->
                                          Fmt.str "%a ◁ₗ ? (free)" pp_term
                                            (loc_of v ty));
                                      pred =
                                        (fun resolve a ->
                                          match a with
                                          | LocTy (l, _) ->
                                              equal_term l
                                                (Simp.simp_term
                                                   (resolve (loc_of v ty)))
                                          | _ -> false);
                                      cont = (fun _ -> continue);
                                    });
                            }))
              else
                (* terminator *)
                let src = e.be_term_loc in
                match block.Syntax.term with
                | Syntax.Goto target -> Some (goto_goal sigma target)
                | Syntax.CondGoto { ot = _; cond; if_true; if_false } ->
                    Some
                      (G.Basic
                         (FExpr
                            {
                              sigma;
                              expr = cond;
                              cont =
                                (fun v ty ->
                                  G.Basic
                                    (FIf
                                       {
                                         v;
                                         ty;
                                         gthen = goto_goal sigma if_true;
                                         gelse = goto_goal sigma if_false;
                                         lbl_then = block_label sigma if_true;
                                         lbl_else = block_label sigma if_false;
                                         src;
                                       }));
                            }))
                | Syntax.Switch { ot = _; scrut; cases; default } ->
                    Some
                      (G.Basic
                         (FExpr
                            {
                              sigma;
                              expr = scrut;
                              cont =
                                (fun v ty ->
                                  G.Basic
                                    (FSwitchJ
                                       {
                                         v;
                                         ty;
                                         cases =
                                           List.map
                                             (fun (k, target) ->
                                               (k, goto_goal sigma target))
                                             cases;
                                         dflt = goto_goal sigma default;
                                         src;
                                       }));
                            }))
                | Syntax.Unreachable -> Some (G.Star (G.LProp PFalse, G.True_))
                | Syntax.Return eo -> (
                    let spec = sigma.fc_spec in
                    let wrap_exists mk_body =
                      (* open rc::exists with evars, substituting them in
                         the return type and postcondition *)
                      let rec go acc = function
                        | [] -> mk_body (List.rev acc)
                        | (x, s) :: rest ->
                            G.Ex (x, s, fun t -> go ((x, t) :: acc) rest)
                      in
                      go [] spec.fs_exists
                    in
                    match eo with
                    | None ->
                        Some
                          (wrap_exists (fun env ->
                               require_hres_list ri.E.ri_env
                                 (List.map (subst_hres env) spec.fs_post)
                                 G.True_))
                    | Some e ->
                        Some
                          (G.Basic
                             (FExpr
                                {
                                  sigma;
                                  expr = e;
                                  cont =
                                    (fun v vty ->
                                      G.Wand
                                        ( intro_val ri.E.ri_env v vty,
                                          wrap_exists (fun env ->
                                              require_val ri.E.ri_env v
                                                (subst_rtype env spec.fs_ret)
                                                (require_hres_list ri.E.ri_env
                                                   (List.map (subst_hres env)
                                                      spec.fs_post)
                                                   G.True_)) ));
                                }))))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* ⊢GOTO: loop invariants                                              *)
(* ------------------------------------------------------------------ *)

let t_goto =
  mk ~heads:[ "goto" ] "T-GOTO" 5 (fun ri j ->
      match j with
      | FGoto { sigma; target } -> (
          match List.assoc_opt target sigma.fc_invs with
          | Some inv ->
              (* prove the invariant: existentials become evars, variable
                 types and constraints are consumed/discharged *)
              let frame =
                Convert.unlisted_frame sigma (List.map fst inv.li_vars)
              in
              let rec go env0 = function
                | [] ->
                    let env = env0 @ sigma.fc_penv in
                    let vars_goal =
                      List.fold_right
                        (fun (x, ty) g ->
                          match List.assoc_opt x sigma.fc_env with
                          | Some l -> require_loc ri.E.ri_env l (subst_rtype env ty) g
                          | None -> g)
                        inv.li_vars
                        (List.fold_right
                           (fun (l, ty) g -> require_loc ri.E.ri_env l ty g)
                           frame
                           (List.fold_right
                              (fun c g ->
                                G.Star (G.LProp (subst_prop env c), g))
                              inv.li_constraints G.True_))
                    in
                    vars_goal
                | (x, s) :: rest ->
                    G.Ex (x, s, fun t -> go ((x, t) :: env0) rest)
              in
              Some (go [] inv.li_exists)
          | None ->
              if sigma.fc_depth > 64 then None
              else
                Some
                  (G.Basic
                     (FBlock
                        {
                          sigma = { sigma with fc_depth = sigma.fc_depth + 1 };
                          label = target;
                          idx = 0;
                        })))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* ⊢IF (IF-BOOL and IF-INT of Figure 6) and ⊢SWITCH                    *)
(* ------------------------------------------------------------------ *)

let t_if =
  mk ~heads:[ "if" ] "IF-BOOL" 10 (fun _ri j ->
      match j with
      | FIf { ty = TBool (_, phi); gthen; gelse; lbl_then; lbl_else; _ } ->
          Some
            (G.AndG
               [
                 (lbl_then, G.Wand (G.LProp phi, gthen));
                 (lbl_else, G.Wand (G.LProp (PNot phi), gelse));
               ])
      | _ -> None)

let t_if_int =
  mk ~heads:[ "if" ] "IF-INT" 11 (fun _ri j ->
      match j with
      | FIf { ty = TInt (_, n); gthen; gelse; lbl_then; lbl_else; _ } ->
          Some
            (G.AndG
               [
                 (lbl_then, G.Wand (G.LProp (p_ne n (Num 0)), gthen));
                 (lbl_else, G.Wand (G.LProp (PEq (n, Num 0)), gelse));
               ])
      | _ -> None)

(* if (p) on a pointer: the optional split again *)
let t_if_ptr =
  mk ~heads:[ "if" ] "IF-PTR" 12 (fun ri j ->
      match j with
      | FIf { v; ty = (TPtrV _ | TNull | TOptional _ | TNamed _) as ty;
              gthen; gelse; lbl_then; lbl_else; _ } ->
          optional_cases ri v ty
            ~on_own:(fun () ->
              match lbl_then with
              | Some l -> G.AndG [ (Some l, gthen) ]
              | None -> gthen)
            ~on_null:(fun () ->
              match lbl_else with
              | Some l -> G.AndG [ (Some l, gelse) ]
              | None -> gelse)
      | _ -> None)

let t_switch =
  mk ~heads:[ "switch" ] "SWITCH-INT" 10 (fun _ri j ->
      match j with
      | FSwitchJ { ty = TInt (_, n); cases; dflt; _ } ->
          let branches =
            List.map
              (fun (k, g) ->
                ( Some (Printf.sprintf "case %d" k),
                  G.Wand (G.LProp (PEq (n, Num k)), g) ))
              cases
          in
          let not_any =
            conj (List.map (fun (k, _) -> p_ne n (Num k)) cases)
          in
          Some
            (G.AndG
               (branches @ [ (Some "default case", G.Wand (G.LProp not_any, dflt)) ]))
      | _ -> None)

let all : E.rule list = [ t_block; t_goto; t_if; t_if_int; t_if_ptr; t_switch ]
