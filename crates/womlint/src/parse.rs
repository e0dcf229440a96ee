//! A lightweight item parser on top of the token stream: struct/enum
//! definitions with field lists, `impl` blocks with their self type, and
//! `fn` definitions with body spans and extracted call sites.
//!
//! This is deliberately *not* a Rust parser (the workspace is offline,
//! so no `syn`): it recognizes exactly the item shapes the structural
//! rules need — enough to attribute a method to its `impl` type, list a
//! struct's named fields, and walk call expressions — and skips
//! everything else. Known limits are documented in `DESIGN.md` §9.

use crate::lexer::{Token, TokenKind};
use crate::scan::{is_ident, is_punct, matching_close};

/// One named struct field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// 1-based line of the field's declaration.
    pub line: u32,
}

/// A `struct` definition with named fields (tuple and unit structs are
/// recorded with an empty field list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: u32,
    /// Named fields, in declaration order (empty for tuple/unit structs).
    pub fields: Vec<FieldDef>,
    /// Whether the struct has a named-field body (`{ ... }`).
    pub has_named_fields: bool,
}

/// How a call expression names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` — a bare path call.
    Free,
    /// `.name(...)` — a method call; `on_self` when the receiver is the
    /// bare `self` token.
    Method {
        /// True for `self.name(...)`.
        on_self: bool,
    },
    /// `Recv::name(...)` — a qualified call; `recv` is the path segment
    /// directly before the callee. A lowercase `Recv::name` passed as a
    /// value (`.map_or(d, Recv::name)`) is recorded the same way: whoever
    /// receives it calls it.
    Path {
        /// The qualifying segment (`Type`, `Self`, or a module name).
        recv: String,
    },
    /// `(...)(...)` — calling the result of an expression (closure,
    /// function pointer, field holding a callable). The call graph
    /// cannot follow these.
    Dynamic,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name (empty for [`CallKind::Dynamic`]).
    pub name: String,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: u32,
}

/// A parsed `fn` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword (signature start).
    pub sig_start: usize,
    /// Token index of the opening `{` of the body.
    pub body_start: usize,
    /// Token index one past the closing `}`.
    pub body_end: usize,
    /// Self type of the enclosing `impl` block, when any.
    pub owner: Option<String>,
    /// Call sites extracted from the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnDef {
    /// True when `ident` occurs anywhere in the signature
    /// (`fn name ... {`), e.g. a parameter type like `SnapWriter`.
    #[must_use]
    pub fn signature_mentions(&self, tokens: &[Token], ident: &str) -> bool {
        tokens
            .get(self.sig_start..self.body_start)
            .unwrap_or(&[])
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == ident))
    }

    /// True when `ident` occurs anywhere in the body.
    #[must_use]
    pub fn body_mentions(&self, tokens: &[Token], ident: &str) -> bool {
        tokens
            .get(self.body_start..self.body_end)
            .unwrap_or(&[])
            .iter()
            .any(|t| matches!(&t.kind, TokenKind::Ident(s) if s == ident))
    }
}

/// Items parsed from one (test-stripped) file.
#[derive(Debug, Default)]
pub struct FileItems {
    /// Struct definitions, in source order.
    pub structs: Vec<StructDef>,
    /// Enum names defined in the file.
    pub enums: Vec<String>,
    /// Functions (free and methods), in source order.
    pub fns: Vec<FnDef>,
}

impl FileItems {
    /// The struct named `name`, if defined in this file.
    #[must_use]
    pub fn struct_named(&self, name: &str) -> Option<&StructDef> {
        self.structs.iter().find(|s| s.name == name)
    }
}

/// Keywords that can directly precede `(` without forming a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "dyn", "else", "fn", "for", "if", "impl", "in",
    "let", "loop", "match", "move", "mut", "pub", "ref", "return", "unsafe", "where", "while",
    "yield",
];

/// Parses the items of one file from its (test-stripped) token stream.
#[must_use]
pub fn parse_items(tokens: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    // Innermost-last stack of `impl` blocks: (self type, end token index).
    let mut impls: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while impls.last().is_some_and(|(_, end)| i >= *end) {
            impls.pop();
        }
        if is_ident(tokens, i, "struct") {
            let (def, next) = parse_struct(tokens, i);
            if let Some(def) = def {
                out.structs.push(def);
            }
            i = next;
            continue;
        }
        if is_ident(tokens, i, "enum") {
            if let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) {
                out.enums.push(name.clone());
            }
            i += 1;
            continue;
        }
        if is_ident(tokens, i, "impl") {
            if let Some((ty, body_open)) = parse_impl_header(tokens, i) {
                if let Some(end) = matching_close(tokens, body_open, '{', '}') {
                    impls.push((ty, end));
                    i = body_open + 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if is_ident(tokens, i, "fn") {
            if let Some(def) = parse_fn(tokens, i, impls.last().map(|(ty, _)| ty.as_str())) {
                let next = def.body_end;
                out.fns.push(def);
                // Do not skip the body: nested fns are items too. Step
                // past the name so `fn` itself is not re-matched.
                i = (i + 2).min(next);
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses `struct Name ...`, returning the definition (when a name is
/// present) and the index to resume scanning from.
fn parse_struct(tokens: &[Token], i: usize) -> (Option<StructDef>, usize) {
    let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) else {
        return (None, i + 1);
    };
    let line = tokens.get(i).map_or(0, |t| t.line);
    // Scan past generics/where-clause to the defining token: `{` begins
    // named fields, `(` a tuple struct, `;` a unit struct. Angle-bracket
    // depth guards against `>` inside bounds; `->` cannot appear here.
    let mut j = i + 2;
    let mut angle = 0i32;
    while let Some(t) = tokens.get(j) {
        match t.kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle <= 0 => {
                let end = matching_close(tokens, j, '{', '}').unwrap_or(tokens.len());
                let fields = parse_named_fields(tokens, j, end);
                return (
                    Some(StructDef {
                        name: name.clone(),
                        line,
                        fields,
                        has_named_fields: true,
                    }),
                    end + 1,
                );
            }
            TokenKind::Punct('(') if angle <= 0 => break,
            TokenKind::Punct(';') if angle <= 0 => break,
            _ => {}
        }
        j += 1;
    }
    (
        Some(StructDef {
            name: name.clone(),
            line,
            fields: Vec::new(),
            has_named_fields: false,
        }),
        j + 1,
    )
}

/// Parses the named fields between the braces at `open..=close`.
fn parse_named_fields(tokens: &[Token], open: usize, close: usize) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    let mut j = open + 1;
    while j < close {
        // Skip field attributes (`#[serde(...)]` style).
        while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
            match matching_close(tokens, j + 1, '[', ']') {
                Some(end) => j = end + 1,
                None => return fields,
            }
        }
        // Skip visibility: `pub` or `pub(crate)` / `pub(in path)`.
        if is_ident(tokens, j, "pub") {
            j += 1;
            if is_punct(tokens, j, '(') {
                match matching_close(tokens, j, '(', ')') {
                    Some(end) => j = end + 1,
                    None => return fields,
                }
            }
        }
        // `name :` (but not `name ::`) starts a field.
        let named = matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Ident(_)))
            && is_punct(tokens, j + 1, ':')
            && !is_punct(tokens, j + 2, ':');
        if named {
            if let Some(t) = tokens.get(j) {
                if let TokenKind::Ident(name) = &t.kind {
                    fields.push(FieldDef {
                        name: name.clone(),
                        line: t.line,
                    });
                }
            }
        }
        // Advance to the comma terminating this field, at brace/paren
        // depth 0 relative to the field (generic commas hide inside
        // `< >`, tuple commas inside `( )`).
        let mut depth = 0i32;
        let mut angle = 0i32;
        while j < close {
            match tokens.get(j).map(|t| &t.kind) {
                Some(TokenKind::Punct('(' | '[' | '{')) => depth += 1,
                Some(TokenKind::Punct(')' | ']' | '}')) => depth -= 1,
                Some(TokenKind::Punct('<')) => angle += 1,
                // `->` in a fn-typed field is not angle nesting.
                Some(TokenKind::Punct('-')) if is_punct(tokens, j + 1, '>') => j += 1,
                Some(TokenKind::Punct('>')) => angle -= 1,
                Some(TokenKind::Punct(',')) if depth <= 0 && angle <= 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
    fields
}

/// Parses an `impl` header starting at `i` (the `impl` token): returns
/// the self-type name and the token index of the body's `{`.
///
/// Handles `impl Type`, `impl Trait for Type`, generic parameter lists,
/// paths (`a::b::Type` → `Type`), and generic arguments
/// (`Engine<P>` → `Engine`).
fn parse_impl_header(tokens: &[Token], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Generic parameter list directly after `impl`.
    if is_punct(tokens, j, '<') {
        j = skip_angles(tokens, j)?;
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    while let Some(t) = tokens.get(j) {
        match &t.kind {
            TokenKind::Punct('{') => {
                let ty = after_for.or(last_ident)?;
                return Some((ty, j));
            }
            TokenKind::Ident(s) if s == "for" => {
                // `Trait for Type`: restart collection on the right side.
                after_for = None;
                last_ident = None;
                j += 1;
                continue;
            }
            TokenKind::Ident(s) if s == "where" => {
                // The self type is complete; scan forward to the body.
                let ty = after_for.clone().or(last_ident.clone())?;
                let mut k = j + 1;
                let mut angle = 0i32;
                while let Some(t2) = tokens.get(k) {
                    match t2.kind {
                        TokenKind::Punct('<') => angle += 1,
                        TokenKind::Punct('>') => angle -= 1,
                        TokenKind::Punct('{') if angle <= 0 => return Some((ty, k)),
                        _ => {}
                    }
                    k += 1;
                }
                return None;
            }
            TokenKind::Ident(s) => {
                last_ident = Some(s.clone());
                j += 1;
                continue;
            }
            TokenKind::Punct('<') => {
                // Generic arguments of the type just collected: the name
                // is already in `last_ident`; skip the argument list.
                if last_ident.is_some() {
                    after_for = after_for.or_else(|| last_ident.clone());
                }
                j = skip_angles(tokens, j)?;
                continue;
            }
            _ => {
                j += 1;
                continue;
            }
        }
    }
    None
}

/// Skips a balanced `< ... >` run starting at the `<` at `open`.
fn skip_angles(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = tokens.get(j) {
        match t.kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            // `->` inside `Fn() -> T` bounds: the `>` belongs to the
            // arrow, not the angle nesting.
            TokenKind::Punct('-') if is_punct(tokens, j + 1, '>') => {
                j += 2;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Parses one `fn` definition starting at `i` (the `fn` token).
fn parse_fn(tokens: &[Token], i: usize, owner: Option<&str>) -> Option<FnDef> {
    let TokenKind::Ident(name) = &tokens.get(i + 1)?.kind else {
        return None;
    };
    let line = tokens.get(i)?.line;
    // Body: first `{` after the signature; a `;` first means a bodyless
    // trait-method declaration. Parens and brackets are skipped whole so
    // the `;` inside `[u8; 8]` (in a parameter or return type) is not
    // mistaken for the declaration terminator.
    let mut j = i + 2;
    let body_start = loop {
        match tokens.get(j)?.kind {
            TokenKind::Punct('{') => break j,
            TokenKind::Punct(';') => return None,
            TokenKind::Punct(open @ ('(' | '[')) => {
                let close = if open == '(' { ')' } else { ']' };
                j = matching_close(tokens, j, open, close)? + 1;
            }
            _ => j += 1,
        }
    };
    let body_end = matching_close(tokens, body_start, '{', '}')? + 1;
    let calls = extract_calls(tokens, body_start, body_end);
    Some(FnDef {
        name: name.clone(),
        line,
        sig_start: i,
        body_start,
        body_end,
        owner: owner.map(str::to_string),
        calls,
    })
}

/// The receiver of `Recv::name` at `j` when it names a function as a
/// value (`.map_or(d, Recv::name)`), not a call, a further path segment,
/// a macro or a constant: the segment is lowercase and nothing but
/// punctuation that ends an expression follows it.
fn path_value_recv(tokens: &[Token], j: usize, name: &str) -> Option<String> {
    let lowercase = name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
    let ends_expr = [',', ')', ';', ']', '}']
        .iter()
        .any(|&c| is_punct(tokens, j + 1, c));
    if !lowercase
        || !ends_expr
        || !is_punct(tokens, j.wrapping_sub(1), ':')
        || !is_punct(tokens, j.wrapping_sub(2), ':')
    {
        return None;
    }
    match &tokens.get(j.wrapping_sub(3))?.kind {
        TokenKind::Ident(recv) => Some(recv.clone()),
        _ => None,
    }
}

/// Extracts call sites from `tokens[start..end)`.
fn extract_calls(tokens: &[Token], start: usize, end: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let mut j = start;
    while j < end {
        let Some(t) = tokens.get(j) else { break };
        if let TokenKind::Ident(name) = &t.kind {
            if is_punct(tokens, j + 1, '(') && !NON_CALL_KEYWORDS.contains(&name.as_str()) {
                // Classify by what precedes the callee identifier.
                let call = if is_punct(tokens, j.wrapping_sub(1), '.') {
                    let on_self = is_ident(tokens, j.wrapping_sub(2), "self")
                        && !is_punct(tokens, j.wrapping_sub(3), '.');
                    Some(CallSite {
                        name: name.clone(),
                        kind: CallKind::Method { on_self },
                        line: t.line,
                    })
                } else if is_punct(tokens, j.wrapping_sub(1), ':')
                    && is_punct(tokens, j.wrapping_sub(2), ':')
                {
                    match tokens.get(j.wrapping_sub(3)).map(|t| &t.kind) {
                        Some(TokenKind::Ident(recv)) => Some(CallSite {
                            name: name.clone(),
                            kind: CallKind::Path { recv: recv.clone() },
                            line: t.line,
                        }),
                        // `>::name(` qualified-path form: treat as free.
                        _ => Some(CallSite {
                            name: name.clone(),
                            kind: CallKind::Free,
                            line: t.line,
                        }),
                    }
                } else if is_ident(tokens, j.wrapping_sub(1), "fn") {
                    None // a nested declaration, not a call
                } else {
                    Some(CallSite {
                        name: name.clone(),
                        kind: CallKind::Free,
                        line: t.line,
                    })
                };
                if let Some(call) = call {
                    out.push(call);
                }
            } else if let Some(recv) = path_value_recv(tokens, j, name) {
                out.push(CallSite {
                    name: name.clone(),
                    kind: CallKind::Path { recv },
                    line: t.line,
                });
            }
        } else if t.kind == TokenKind::Punct('(') && is_punct(tokens, j.wrapping_sub(1), ')') {
            // `(...)(...)`: calling the result of an expression. Skip
            // tuple-struct patterns and ordinary grouping by requiring
            // the inner expression to not be a control-flow tail — at
            // token level, `)(` only arises for callable values.
            out.push(CallSite {
                name: String::new(),
                kind: CallKind::Dynamic,
                line: t.line,
            });
        }
        j += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn items(src: &str) -> FileItems {
        parse_items(&scan(src).tokens)
    }

    #[test]
    fn structs_fields_and_shapes_are_parsed() {
        let it = items(
            "pub struct A { pub x: u64, y: Vec<(u8, u8)>, pub(crate) z: BTreeMap<u64, u64> }\n\
             struct Tuple(u8, u8);\n\
             struct Unit;\n\
             pub struct Generic<T: Clone> where T: Default { inner: T, n: usize }\n",
        );
        let a = it.struct_named("A").unwrap();
        let names: Vec<&str> = a.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
        assert!(a.has_named_fields);
        assert!(!it.struct_named("Tuple").unwrap().has_named_fields);
        assert!(!it.struct_named("Unit").unwrap().has_named_fields);
        let g = it.struct_named("Generic").unwrap();
        let names: Vec<&str> = g.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["inner", "n"]);
    }

    #[test]
    fn array_types_in_signatures_do_not_truncate_the_fn() {
        // `[u8; 8]` carries a `;` — it must not read as a bodyless
        // trait-method declaration (that bug silently dropped
        // `encode_record` from the call graph).
        let it = items(
            "fn enc(r: &R, buf: &mut [u8; 8]) { fill(buf) }\n\
             fn footer(count: u64) -> [u8; 16] { make(count) }\n\
             trait T { fn decl(x: [u8; 4]); }\n",
        );
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["enc", "footer"]);
        assert!(it.fns[0].calls.iter().any(|c| c.name == "fill"));
    }

    #[test]
    fn impl_blocks_attribute_methods_to_their_type() {
        let it = items(
            "struct Foo { a: u8 }\n\
             impl Foo { fn m(&self) {} }\n\
             impl Clone for Foo { fn clone(&self) -> Self { Self { a: self.a } } }\n\
             impl<T: Copy> From<T> for Foo where T: Into<u8> { fn from(t: T) -> Self { todo(t) } }\n\
             fn free() {}\n",
        );
        let owners: Vec<(String, Option<String>)> = it
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            owners,
            vec![
                ("m".into(), Some("Foo".into())),
                ("clone".into(), Some("Foo".into())),
                ("from".into(), Some("Foo".into())),
                ("free".into(), None),
            ]
        );
    }

    #[test]
    fn generic_self_types_resolve_to_the_base_name() {
        let it = items(
            "impl<P: ArchPolicy> Engine<P> { fn run(&mut self) {} }\n\
             impl WomCode for Box<C> { fn encode(&self) {} }\n",
        );
        assert_eq!(it.fns[0].owner.as_deref(), Some("Engine"));
        assert_eq!(it.fns[1].owner.as_deref(), Some("Box"));
    }

    #[test]
    fn call_sites_are_classified() {
        let it = items(
            "fn f(&self, cb: impl Fn()) {\n\
                 helper();\n\
                 self.step();\n\
                 other.step();\n\
                 Type::assoc();\n\
                 a::b::leaf();\n\
                 (self.cb)();\n\
                 if x { g() } else { h() }\n\
             }\n",
        );
        let f = &it.fns[0];
        let kinds: Vec<(&str, &CallKind)> =
            f.calls.iter().map(|c| (c.name.as_str(), &c.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                ("helper", &CallKind::Free),
                ("step", &CallKind::Method { on_self: true }),
                ("step", &CallKind::Method { on_self: false }),
                (
                    "assoc",
                    &CallKind::Path {
                        recv: "Type".into()
                    }
                ),
                ("leaf", &CallKind::Path { recv: "b".into() }),
                ("", &CallKind::Dynamic),
                ("g", &CallKind::Free),
                ("h", &CallKind::Free),
            ]
        );
    }

    #[test]
    fn functions_passed_by_path_are_call_sites() {
        let it = items(
            "fn f() {\n\
                 x.map_or(false, Recorder::check);\n\
                 y.is_none_or(Memory::is_idle);\n\
                 let g = Self::step;\n\
                 let _ = [a::leaf, b::other];\n\
                 let _ = (Ordering::Less, u64::MAX);\n\
                 let _: kinds::Kind = std::mem::take(z);\n\
             }\n",
        );
        let path = |recv: &str| CallKind::Path { recv: recv.into() };
        let method = CallKind::Method { on_self: false };
        let kinds: Vec<(&str, CallKind)> = it.fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.kind.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("map_or", method.clone()),
                ("check", path("Recorder")),
                ("is_none_or", method),
                ("is_idle", path("Memory")),
                ("step", path("Self")),
                ("leaf", path("a")),
                ("other", path("b")),
                ("take", path("mem")),
            ]
        );
    }

    #[test]
    fn signature_and_body_mention_checks_work() {
        let s = scan("fn save_state(&self, w: &mut SnapWriter) { w.put_u64(self.count); }\n");
        let it = parse_items(&s.tokens);
        let f = &it.fns[0];
        assert!(f.signature_mentions(&s.tokens, "SnapWriter"));
        assert!(!f.signature_mentions(&s.tokens, "SnapReader"));
        assert!(f.body_mentions(&s.tokens, "count"));
        assert!(!f.body_mentions(&s.tokens, "missing"));
    }

    #[test]
    fn enums_and_nested_fns_are_recorded() {
        let it = items(
            "enum Kind { A, B }\n\
             fn outer() { fn inner() { leaf(); } inner(); }\n",
        );
        assert_eq!(it.enums, vec!["Kind"]);
        let names: Vec<&str> = it.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
