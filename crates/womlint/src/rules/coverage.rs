//! `snapshot/field-coverage` and `merge/field-coverage`: field
//! exhaustiveness proofs for the `WOMSNAP` codec and for shard-merge.
//!
//! Discovery is automatic — no config list to keep in sync:
//!
//! * a type participates in the snap codec when it has a method
//!   `save_state` taking a `SnapWriter`, or `load_state`/`restore_state`
//!   taking a `SnapReader` — inherent, or in a trait impl such as
//!   `impl Snap for T`, whose methods are owned by the type after `for`;
//! * a type participates in merge when it has a method named `merge` or
//!   `merge_disjoint`.
//!
//! For every such type with a named-field struct definition in the same
//! crate, each declared field must be *referenced by name* in each
//! codec/merge function body, or be exempted by a `[[snapshot.allow]]` /
//! `[[merge.allow]]` entry (with a mandatory reason) or an inline
//! `womlint::allow` on the field's declaration line. Matching is
//! token-level (an identifier equal to the field name anywhere in the
//! body counts), which accepts destructuring and struct-literal forms
//! and cannot be fooled by comments or strings — but a same-named local
//! variable also counts; see DESIGN.md §9 for the known limits.

use crate::callgraph::{FileUnit, FnRef, Workspace};
use crate::config::{Config, CoverageAllow};
use crate::parse::StructDef;
use crate::{push, Diagnostic, Report, RULE_MERGE_COVERAGE, RULE_SNAPSHOT_COVERAGE};
use std::collections::BTreeMap;

/// Runs both coverage families over the workspace.
pub fn check(cfg: &Config, ws: &Workspace, report: &mut Report) {
    check_family(
        ws,
        report,
        &snap_codec_fns(ws),
        &cfg.snapshot_allow,
        RULE_SNAPSHOT_COVERAGE,
        "snapshot",
        "serialized",
    );
    check_family(
        ws,
        report,
        &merge_fns(ws),
        &cfg.merge_allow,
        RULE_MERGE_COVERAGE,
        "merge",
        "merged",
    );
}

/// Snap-codec functions grouped by `(crate, owner type)`.
fn snap_codec_fns(ws: &Workspace) -> BTreeMap<(String, String), Vec<FnRef>> {
    collect_fns(ws, |unit, f| {
        let enc = f.name == "save_state" && f.signature_mentions(&unit.scan.tokens, "SnapWriter");
        let dec = (f.name == "load_state" || f.name == "restore_state")
            && f.signature_mentions(&unit.scan.tokens, "SnapReader");
        enc || dec
    })
}

/// Merge functions grouped by `(crate, owner type)`.
fn merge_fns(ws: &Workspace) -> BTreeMap<(String, String), Vec<FnRef>> {
    collect_fns(ws, |_, f| f.name == "merge" || f.name == "merge_disjoint")
}

fn collect_fns(
    ws: &Workspace,
    mut want: impl FnMut(&FileUnit, &crate::parse::FnDef) -> bool,
) -> BTreeMap<(String, String), Vec<FnRef>> {
    let mut out: BTreeMap<(String, String), Vec<FnRef>> = BTreeMap::new();
    for (fi, unit) in ws.files.iter().enumerate() {
        for (gi, f) in unit.items.fns.iter().enumerate() {
            let Some(owner) = &f.owner else { continue };
            if want(unit, f) {
                out.entry((unit.krate.clone(), owner.clone()))
                    .or_default()
                    .push(FnRef { file: fi, func: gi });
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn check_family(
    ws: &Workspace,
    report: &mut Report,
    groups: &BTreeMap<(String, String), Vec<FnRef>>,
    allows: &[CoverageAllow],
    rule: &str,
    section: &str,
    verb: &str,
) {
    for ((krate, ty), fns) in groups {
        // Codec impls of the crate's own types live in the defining
        // crate, so the struct is found in the same crate; enums, tuple
        // structs and foreign types (a `Snap` impl for `Vec` or a tuple)
        // have no named fields here to prove.
        let Some((unit, def)) = find_struct(ws, krate, ty) else {
            continue;
        };
        for field in &def.fields {
            if let Some(a) = allows
                .iter()
                .find(|a| &a.type_name == ty && a.field == field.name)
            {
                report.suppressed.push(Diagnostic {
                    rule: rule.into(),
                    file: unit.path.clone(),
                    line: field.line,
                    message: format!(
                        "`{ty}.{}` allowlisted in womlint.toml ({})",
                        field.name, a.reason
                    ),
                });
                continue;
            }
            for &fref in fns {
                let (Some(funit), Some(f)) = (ws.file(fref), ws.func(fref)) else {
                    continue;
                };
                if !f.body_mentions(&funit.scan.tokens, &field.name) {
                    push(
                        report,
                        &unit.scan,
                        Diagnostic {
                            rule: rule.into(),
                            file: unit.path.clone(),
                            line: field.line,
                            message: format!(
                                "field `{ty}.{}` is not referenced by `{}` \
                                 ({}:{}) — every field must be {verb} or \
                                 exempted via [[{section}.allow]] with a reason",
                                field.name, f.name, funit.path, f.line
                            ),
                        },
                    );
                }
            }
        }
    }
}

fn find_struct<'a>(
    ws: &'a Workspace,
    krate: &str,
    ty: &str,
) -> Option<(&'a FileUnit, &'a StructDef)> {
    ws.files.iter().filter(|u| u.krate == krate).find_map(|u| {
        u.items
            .struct_named(ty)
            .filter(|s| s.has_named_fields)
            .map(|s| (u, s))
    })
}
