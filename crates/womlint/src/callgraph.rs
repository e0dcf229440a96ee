//! Per-workspace call graph: a name-based index over every parsed file,
//! call-site resolution, and the transitive closure of the tagged hot
//! regions.
//!
//! Resolution is deliberately conservative (this is a lint, not a
//! compiler): a method call resolves to *every* workspace method with
//! that name — unless the receiver is `self` and its own type defines
//! the method — so a helper extracted out of a hot function cannot
//! escape the closure by being called through a trait, and a same-named
//! method in the caller's file cannot hide the one actually called. Calls that resolve to nothing in the
//! workspace are assumed external (`std`, dependencies) and are only
//! constrained by the banned-call list; calls through non-path
//! expressions (`(self.cb)(...)`) are surfaced as
//! `hotpath/dynamic-call` frontier diagnostics instead of being
//! silently ignored.

use crate::parse::{CallKind, CallSite, FileItems, FnDef};
use crate::scan::FileScan;
use std::collections::{BTreeMap, BTreeSet};

/// One scanned-and-parsed file plus the crate it belongs to.
#[derive(Debug)]
pub struct FileUnit {
    /// Workspace-relative path (forward slashes), as used in diagnostics.
    pub path: String,
    /// Crate name (the `womlint.toml` scope name).
    pub krate: String,
    /// Token-level per-file analysis.
    pub scan: FileScan,
    /// Parsed items.
    pub items: FileItems,
}

/// A function reference: indices into [`Workspace::files`] and that
/// file's `items.fns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`FileItems::fns`].
    pub func: usize,
}

/// Every scanned file of the workspace plus name-based indices.
#[derive(Debug, Default)]
pub struct Workspace {
    /// All scanned files, in deterministic (path-sorted) order.
    pub files: Vec<FileUnit>,
    /// Free functions by name.
    free_by_name: BTreeMap<String, Vec<FnRef>>,
    /// Methods (functions with an `impl` owner) by name.
    methods_by_name: BTreeMap<String, Vec<FnRef>>,
    /// Methods by `(owner type, name)`.
    methods_by_type: BTreeMap<(String, String), Vec<FnRef>>,
}

/// Outcome of resolving one call site.
#[derive(Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Candidate definitions inside the workspace.
    Workspace(Vec<FnRef>),
    /// No workspace definition: `std` or a dependency.
    External,
    /// A call the graph cannot follow (`(...)(...)`).
    Dynamic,
}

impl Workspace {
    /// Builds the workspace model and its indices.
    #[must_use]
    pub fn new(files: Vec<FileUnit>) -> Self {
        let mut ws = Self {
            files,
            ..Self::default()
        };
        for (fi, unit) in ws.files.iter().enumerate() {
            for (gi, f) in unit.items.fns.iter().enumerate() {
                let r = FnRef { file: fi, func: gi };
                match &f.owner {
                    Some(ty) => {
                        ws.methods_by_name
                            .entry(f.name.clone())
                            .or_default()
                            .push(r);
                        ws.methods_by_type
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(r);
                    }
                    None => ws.free_by_name.entry(f.name.clone()).or_default().push(r),
                }
            }
        }
        ws
    }

    /// The function a reference points at.
    #[must_use]
    pub fn func(&self, r: FnRef) -> Option<&FnDef> {
        self.files.get(r.file)?.items.fns.get(r.func)
    }

    /// The file a reference points into.
    #[must_use]
    pub fn file(&self, r: FnRef) -> Option<&FileUnit> {
        self.files.get(r.file)
    }

    /// Index of the file at `path`, if scanned.
    #[must_use]
    pub fn file_index(&self, path: &str) -> Option<usize> {
        self.files.iter().position(|u| u.path == path)
    }

    /// All functions named `name` in file `fi` (any owner).
    fn in_file_by_name(&self, fi: usize, name: &str) -> Vec<FnRef> {
        self.files
            .get(fi)
            .map(|u| {
                u.items
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.name == name)
                    .map(|(gi, _)| FnRef { file: fi, func: gi })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// True when `name` is a type defined (or implemented) in the
    /// workspace.
    fn is_workspace_type(&self, name: &str) -> bool {
        self.methods_by_type.keys().any(|(ty, _)| ty == name)
            || self.files.iter().any(|u| {
                u.items.struct_named(name).is_some() || u.items.enums.iter().any(|e| e == name)
            })
    }

    /// Resolves one call site made from `caller`.
    #[must_use]
    pub fn resolve(&self, caller: FnRef, call: &CallSite) -> Resolution {
        match &call.kind {
            CallKind::Dynamic => Resolution::Dynamic,
            CallKind::Method { on_self } => {
                if *on_self {
                    if let Some(owner) = self.func(caller).and_then(|f| f.owner.clone()) {
                        let key = (owner, call.name.clone());
                        if let Some(c) = self.methods_by_type.get(&key) {
                            return Resolution::Workspace(c.clone());
                        }
                    }
                }
                self.resolve_method_by_name(&call.name)
            }
            CallKind::Path { recv } => {
                if recv == "Self" {
                    if let Some(owner) = self.func(caller).and_then(|f| f.owner.clone()) {
                        let key = (owner, call.name.clone());
                        if let Some(c) = self.methods_by_type.get(&key) {
                            return Resolution::Workspace(c.clone());
                        }
                    }
                    return Resolution::External;
                }
                if self.is_workspace_type(recv) {
                    let key = (recv.clone(), call.name.clone());
                    return match self.methods_by_type.get(&key) {
                        Some(c) => Resolution::Workspace(c.clone()),
                        // The type is ours, the method is not (a derived
                        // or std-trait method): external.
                        None => Resolution::External,
                    };
                }
                if recv.chars().next().is_some_and(char::is_uppercase) {
                    // `Vec::new(...)`: an unknown type — std or a
                    // dependency, never a workspace free fn.
                    return Resolution::External;
                }
                // `module::func(...)`: fall through to free-fn lookup.
                self.resolve_free(caller.file, &call.name)
            }
            CallKind::Free => self.resolve_free(caller.file, &call.name),
        }
    }

    /// Every workspace method named `name`, the caller's own file's
    /// among them: a same-file method must not shadow the rest, since
    /// `self.cache.flush()` may well call another file's `flush`.
    fn resolve_method_by_name(&self, name: &str) -> Resolution {
        match self.methods_by_name.get(name) {
            Some(c) => Resolution::Workspace(c.clone()),
            None => Resolution::External,
        }
    }

    fn resolve_free(&self, caller_file: usize, name: &str) -> Resolution {
        let local: Vec<FnRef> = self
            .in_file_by_name(caller_file, name)
            .into_iter()
            .filter(|r| self.func(*r).is_some_and(|f| f.owner.is_none()))
            .collect();
        if !local.is_empty() {
            return Resolution::Workspace(local);
        }
        match self.free_by_name.get(name) {
            Some(c) => Resolution::Workspace(c.clone()),
            None => Resolution::External,
        }
    }
}

/// Why a function is in the hot closure.
#[derive(Debug, Clone)]
pub struct Reach {
    /// The configured root function this one is reachable from.
    pub root: FnRef,
    /// The immediate caller that pulled this function in (`None` for
    /// roots themselves).
    pub via: Option<FnRef>,
}

/// The transitive closure of the hot roots.
#[derive(Debug, Default)]
pub struct Closure {
    /// Every reachable function with one witness path.
    pub reached: BTreeMap<FnRef, Reach>,
}

impl Closure {
    /// True when `r` is one of the configured roots (not merely
    /// reachable).
    #[must_use]
    pub fn is_root(&self, r: FnRef) -> bool {
        self.reached.get(&r).is_some_and(|info| info.via.is_none())
    }

    /// Reconstructs the call chain `root → ... → target` as function
    /// names, for diagnostics.
    #[must_use]
    pub fn chain(&self, ws: &Workspace, target: FnRef) -> Vec<String> {
        let mut names = Vec::new();
        let mut cur = Some(target);
        let mut hops = 0usize;
        while let Some(r) = cur {
            if let Some(f) = ws.func(r) {
                names.push(f.name.clone());
            }
            cur = self.reached.get(&r).and_then(|info| info.via);
            hops += 1;
            if hops > 64 {
                break; // cycle guard; witness paths are acyclic by construction
            }
        }
        names.reverse();
        names
    }
}

/// A closure stop: calls *into* `function` in `file` are not followed.
/// Configured via `[[hotpath.stop]]` with a mandatory reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StopEntry {
    /// File the boundary function lives in.
    pub file: String,
    /// Function name the closure must not enter.
    pub function: String,
}

/// Computes the call-graph closure of `roots`, not entering functions
/// named by `stops` and not following calls whose callee name is in
/// `skip_calls` (names already banned outright are reported at the call
/// site by `hotpath/alloc` — following them into, say, a `Clone` impl
/// body would only duplicate the diagnostic).
#[must_use]
pub fn closure(
    ws: &Workspace,
    roots: &[FnRef],
    stops: &[StopEntry],
    skip_calls: &BTreeSet<String>,
) -> Closure {
    let stopped: BTreeSet<FnRef> = stops
        .iter()
        .flat_map(|s| {
            ws.file_index(&s.file)
                .map(|fi| ws.in_file_by_name(fi, &s.function))
                .unwrap_or_default()
        })
        .collect();
    let mut out = Closure::default();
    let mut queue: Vec<FnRef> = Vec::new();
    for &root in roots {
        if out.reached.contains_key(&root) {
            continue;
        }
        out.reached.insert(root, Reach { root, via: None });
        queue.push(root);
    }
    while let Some(cur) = queue.pop() {
        let Some(f) = ws.func(cur) else { continue };
        let root = out.reached.get(&cur).map(|i| i.root);
        let Some(root) = root else { continue };
        for call in &f.calls {
            if skip_calls.contains(&call.name) {
                continue;
            }
            if let Resolution::Workspace(cands) = ws.resolve(cur, call) {
                for cand in cands {
                    if stopped.contains(&cand) || out.reached.contains_key(&cand) {
                        continue;
                    }
                    out.reached.insert(
                        cand,
                        Reach {
                            root,
                            via: Some(cur),
                        },
                    );
                    queue.push(cand);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_items;
    use crate::scan::scan;

    fn unit(path: &str, src: &str) -> FileUnit {
        let scan = scan(src);
        let items = parse_items(&scan.tokens);
        FileUnit {
            path: path.into(),
            krate: "demo".into(),
            scan,
            items,
        }
    }

    fn named(ws: &Workspace, file: &str, name: &str) -> FnRef {
        let fi = ws.file_index(file).unwrap();
        let gi = ws
            .files
            .get(fi)
            .unwrap()
            .items
            .fns
            .iter()
            .position(|f| f.name == name)
            .unwrap();
        FnRef { file: fi, func: gi }
    }

    #[test]
    fn closure_follows_free_method_and_cross_file_calls() {
        let ws = Workspace::new(vec![
            unit(
                "a/src/lib.rs",
                "struct S;\n\
                 impl S { fn root(&self) { helper(); self.step(); } \n\
                          fn step(&self) { cross_leaf(); } }\n\
                 fn helper() {}\n",
            ),
            unit(
                "b/src/lib.rs",
                "pub fn cross_leaf() { unrelated(); }\nfn unrelated() {}\n",
            ),
        ]);
        let root = named(&ws, "a/src/lib.rs", "root");
        let c = closure(&ws, &[root], &[], &BTreeSet::new());
        let names: Vec<String> = c
            .reached
            .keys()
            .filter_map(|&r| ws.func(r).map(|f| f.name.clone()))
            .collect();
        assert_eq!(
            names,
            vec!["root", "step", "helper", "cross_leaf", "unrelated"]
        );
        let leaf = named(&ws, "b/src/lib.rs", "unrelated");
        assert_eq!(
            c.chain(&ws, leaf),
            vec!["root", "step", "cross_leaf", "unrelated"]
        );
        assert!(c.is_root(root));
        assert!(!c.is_root(leaf));
    }

    #[test]
    fn same_file_methods_do_not_shadow_workspace_wide_ones() {
        let ws = Workspace::new(vec![
            unit(
                "a/src/lib.rs",
                "struct A;\nimpl A { fn root(&self) { x.work(); } fn work(&self) {} }\n",
            ),
            unit(
                "b/src/lib.rs",
                "struct B;\nimpl B { fn work(&self) { oops(); } }\nfn oops() {}\n",
            ),
        ]);
        let root = named(&ws, "a/src/lib.rs", "root");
        let c = closure(&ws, &[root], &[], &BTreeSet::new());
        let reached: Vec<(usize, String)> = c
            .reached
            .keys()
            .filter_map(|&r| ws.func(r).map(|f| (r.file, f.name.clone())))
            .collect();
        // `x.work()` may be either file's `work`, so both are hot.
        let (a, b) = (root.file, 1 - root.file);
        assert_eq!(
            reached,
            vec![
                (a, "root".into()),
                (a, "work".into()),
                (b, "work".into()),
                (b, "oops".into())
            ]
        );
    }

    #[test]
    fn self_calls_prefer_the_owner_type() {
        let ws = Workspace::new(vec![unit(
            "a/src/lib.rs",
            "struct A;\nstruct B;\n\
             impl A { fn root(&self) { self.go(); } fn go(&self) {} }\n\
             impl B { fn go(&self) { other(); } }\n\
             fn other() {}\n",
        )]);
        let root = named(&ws, "a/src/lib.rs", "root");
        let c = closure(&ws, &[root], &[], &BTreeSet::new());
        let names: Vec<String> = c
            .reached
            .keys()
            .filter_map(|&r| ws.func(r).map(|f| f.name.clone()))
            .collect();
        // Only A::go, not B::go (and therefore not `other`).
        assert_eq!(names, vec!["root", "go"]);
    }

    #[test]
    fn stops_cut_the_closure_with_a_boundary() {
        let ws = Workspace::new(vec![unit(
            "a/src/lib.rs",
            "fn root() { boundary(); }\nfn boundary() { deep(); }\nfn deep() {}\n",
        )]);
        let root = named(&ws, "a/src/lib.rs", "root");
        let c = closure(
            &ws,
            &[root],
            &[StopEntry {
                file: "a/src/lib.rs".into(),
                function: "boundary".into(),
            }],
            &BTreeSet::new(),
        );
        let names: Vec<String> = c
            .reached
            .keys()
            .filter_map(|&r| ws.func(r).map(|f| f.name.clone()))
            .collect();
        assert_eq!(names, vec!["root"]);
    }

    #[test]
    fn external_and_dynamic_calls_resolve_as_such() {
        let ws = Workspace::new(vec![unit(
            "a/src/lib.rs",
            "fn f(cb: impl Fn()) { std_thing(); (cb)(); }\n",
        )]);
        let f = named(&ws, "a/src/lib.rs", "f");
        let calls = &ws.func(f).unwrap().calls.clone();
        assert_eq!(ws.resolve(f, &calls[0]), Resolution::External);
        assert_eq!(ws.resolve(f, &calls[1]), Resolution::Dynamic);
    }
}
