//! The two-phase parser `acctrade_html::parse` replaced, kept as a test
//! oracle: a tokenizer that collects every token into a `Vec`, then a tree
//! builder that attaches them, matching close tags against an
//! ASCII-lowercased copy of their name. Its documents are plain node,
//! parent and root lists, compared node for node with the library's.

use acctrade_html::dom::VOID_ELEMENTS;
use acctrade_html::{Node, NodeId};

/// A parsed document, in arena order.
pub struct RefDoc {
    pub nodes: Vec<Node>,
    /// The element each node was attached under, `None` at top level.
    pub parents: Vec<Option<NodeId>>,
    pub roots: Vec<NodeId>,
}

pub fn parse(input: &str) -> RefDoc {
    build_tree(tokenize(input))
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open { tag: String, attrs: Vec<(String, String)>, self_closing: bool },
    Close { tag: String },
    Text(String),
    Comment(String),
}

fn tokenize(input: &str) -> Vec<Token> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut text_start = 0;

    while i < bytes.len() {
        if bytes[i] == b'<' {
            // Flush pending text.
            if i > text_start {
                let raw = &input[text_start..i];
                if !raw.is_empty() {
                    tokens.push(Token::Text(unescape(raw)));
                }
            }
            if input[i..].starts_with("<!--") {
                let end = input[i + 4..].find("-->").map(|j| i + 4 + j);
                match end {
                    Some(e) => {
                        tokens.push(Token::Comment(input[i + 4..e].to_string()));
                        i = e + 3;
                    }
                    None => {
                        // Unterminated comment swallows the rest.
                        tokens.push(Token::Comment(input[i + 4..].to_string()));
                        i = bytes.len();
                    }
                }
                text_start = i;
                continue;
            }
            if input[i..].starts_with("<!") {
                // DOCTYPE or bogus declaration: skip to '>'.
                match input[i..].find('>') {
                    Some(j) => i += j + 1,
                    None => i = bytes.len(),
                }
                text_start = i;
                continue;
            }
            match input[i..].find('>') {
                Some(j) => {
                    let inner = &input[i + 1..i + j];
                    i += j + 1;
                    text_start = i;
                    if let Some(tag) = inner.strip_prefix('/') {
                        let tag = tag.trim().to_ascii_lowercase();
                        if !tag.is_empty() {
                            tokens.push(Token::Close { tag });
                        }
                    } else if !inner.trim().is_empty() {
                        if let Some(tok) = parse_open_tag(inner) {
                            tokens.push(tok);
                        }
                    }
                }
                None => {
                    // Dangling '<' at EOF: treat as text.
                    tokens.push(Token::Text(unescape(&input[i..])));
                    i = bytes.len();
                    text_start = i;
                }
            }
        } else {
            i += 1;
        }
    }
    if text_start < bytes.len() {
        tokens.push(Token::Text(unescape(&input[text_start..])));
    }
    tokens
}

fn parse_open_tag(inner: &str) -> Option<Token> {
    let inner = inner.trim();
    let self_closing = inner.ends_with('/');
    let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
    let mut chars = inner.char_indices();
    let tag_end = chars
        .find(|&(_, c)| c.is_whitespace())
        .map(|(idx, _)| idx)
        .unwrap_or(inner.len());
    let tag = inner[..tag_end].to_ascii_lowercase();
    if tag.is_empty() || !tag.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
        return None;
    }
    let attrs = parse_attrs(&inner[tag_end..]);
    Some(Token::Open { tag, attrs, self_closing })
}

fn parse_attrs(s: &str) -> Vec<(String, String)> {
    let mut attrs = Vec::new();
    let mut i = 0;
    let at = |i: usize| s[i..].chars().next();
    let skip_ws = |mut i: usize| {
        while let Some(c) = s[i..].chars().next() {
            if !c.is_whitespace() {
                break;
            }
            i += c.len_utf8();
        }
        i
    };
    while i < s.len() {
        i = skip_ws(i);
        if i >= s.len() {
            break;
        }
        let name_start = i;
        while let Some(c) = at(i) {
            if c.is_whitespace() || c == '=' {
                break;
            }
            i += c.len_utf8();
        }
        let name = s[name_start..i].to_lowercase();
        if name.is_empty() {
            i += at(i).map(char::len_utf8).unwrap_or(1);
            continue;
        }
        i = skip_ws(i);
        if at(i) == Some('=') {
            i += 1;
            i = skip_ws(i);
            match at(i) {
                Some(quote @ ('"' | '\'')) => {
                    i += 1;
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c == quote {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    attrs.push((name, unescape(&s[val_start..i])));
                    i += at(i).map(char::len_utf8).unwrap_or(0); // past closing quote
                }
                _ => {
                    let val_start = i;
                    while let Some(c) = at(i) {
                        if c.is_whitespace() {
                            break;
                        }
                        i += c.len_utf8();
                    }
                    attrs.push((name, unescape(&s[val_start..i])));
                }
            }
        } else {
            // Boolean attribute.
            attrs.push((name, String::new()));
        }
    }
    attrs
}

/// The char-at-a-time entity decoder the parser used before.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(semi) = s[i..].find(';').map(|j| i + j) {
                let entity = &s[i + 1..semi];
                let decoded = match entity {
                    "amp" => Some('&'),
                    "lt" => Some('<'),
                    "gt" => Some('>'),
                    "quot" => Some('"'),
                    "apos" => Some('\''),
                    "nbsp" => Some('\u{a0}'),
                    _ => {
                        if let Some(hex) = entity.strip_prefix("#x").or(entity.strip_prefix("#X")) {
                            u32::from_str_radix(hex, 16).ok().and_then(char::from_u32)
                        } else if let Some(dec) = entity.strip_prefix('#') {
                            dec.parse::<u32>().ok().and_then(char::from_u32)
                        } else {
                            None
                        }
                    }
                };
                if let Some(c) = decoded {
                    // Entities longer than 24 chars are junk, not entities.
                    if entity.len() <= 24 {
                        out.push(c);
                        i = semi + 1;
                        continue;
                    }
                }
            }
        }
        // i < s.len() on a char boundary by loop construction.
        let ch = s[i..].chars().next().expect("in-bounds char");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

fn build_tree(tokens: Vec<Token>) -> RefDoc {
    let mut doc = RefDoc { nodes: Vec::new(), parents: Vec::new(), roots: Vec::new() };
    let mut stack: Vec<(NodeId, String)> = Vec::new();

    let attach = |doc: &mut RefDoc, stack: &[(NodeId, String)], node: Node| -> NodeId {
        let id = doc.nodes.len();
        doc.nodes.push(node);
        let parent = stack.last().map(|&(p, _)| p);
        doc.parents.push(parent);
        match parent {
            Some(p) => {
                if let Node::Element { children, .. } = &mut doc.nodes[p] {
                    children.push(id);
                }
            }
            None => doc.roots.push(id),
        }
        id
    };

    for token in tokens {
        match token {
            Token::Text(t) => {
                if !t.is_empty() {
                    attach(&mut doc, &stack, Node::Text(t));
                }
            }
            Token::Comment(c) => {
                attach(&mut doc, &stack, Node::Comment(c));
            }
            Token::Open { tag, attrs, self_closing } => {
                let id = attach(
                    &mut doc,
                    &stack,
                    Node::Element { tag: tag.clone(), attrs, children: Vec::new() },
                );
                if !self_closing && !VOID_ELEMENTS.contains(&tag.as_str()) {
                    stack.push((id, tag));
                }
            }
            Token::Close { tag } => {
                // Pop to the matching open tag; if none is open, ignore the
                // stray close (browser behaviour).
                if let Some(pos) = stack.iter().rposition(|(_, t)| *t == tag) {
                    stack.truncate(pos);
                }
            }
        }
    }
    doc
}
