//! Property tests: the parser's browser-grade tolerance guarantees, its
//! agreement with the two-phase reference parser, and the DOM's parent
//! links, document order and first-match selection.

mod reference;

use acctrade_html::dom::Builder;
use acctrade_html::{parse, unescape, Document, Node, NodeId, Selector};
use foundation::check::pattern;
use foundation::prop_check;

/// HTML-token soup: mixed-case and spaced close tags, comments with and
/// without their end, doctypes, entities, void and self-closing tags,
/// stray and unclosed tags, `<>` and a dangling `<`, between text.
const SOUP: &str = "(<div>|<DiV ClAsS=\"a b\">|<p id=x>|<P>|</P >|</ p>|</DIV>|</div>|\
    <span/>|</span>|<a href='/offer/1' data-field=title disabled>|</a>|<ul><li>|</li>|\
    <br>|<BR/>|<img src=a/>|<input value=\"&amp;q\">|<!--|-->|<!-- c -->|<!DOCTYPE html>|\
    <!x>|&amp;|&lt;|&#x41;|&#65;|&#xZZ;|&bogus;|&|;|<>|</>|<|>|< div>|text| |\\PC){0,60}";

/// Entity fragments, including names too long to decode.
const ENTITY_SOUP: &str = "([a-z ]|&|;|#|x|X|amp|lt|nbsp|41|\\PC|12345678901234567890){0,40}";

/// Every node of `doc` equals the reference parser's, with the same parent
/// and the same top-level list.
fn assert_same_as_reference(input: &str) {
    let doc = parse(input);
    let want = reference::parse(input);
    assert_eq!(doc.len(), want.nodes.len(), "node count for {input:?}");
    for (id, node) in want.nodes.iter().enumerate() {
        assert_eq!(doc.node(id), node, "node {id} of {input:?}");
        assert_eq!(doc.parent_of(id), want.parents[id], "parent of node {id} of {input:?}");
    }
    assert_eq!(doc.roots(), want.roots.as_slice(), "roots of {input:?}");
}

/// `parent_of` agrees with a search of every element's children, and the
/// arena is in document order: a depth-first walk from the roots visits
/// node ids 0, 1, 2, ….
fn assert_links_and_order(doc: &Document) {
    for id in 0..doc.len() {
        let holder = (0..doc.len()).find(|&p| match doc.node(p) {
            Node::Element { children, .. } => children.contains(&id),
            _ => false,
        });
        assert_eq!(doc.parent_of(id), holder, "parent of node {id}");
    }
    fn walk(doc: &Document, id: NodeId, out: &mut Vec<NodeId>) {
        out.push(id);
        if let Node::Element { children, .. } = doc.node(id) {
            for &c in children {
                walk(doc, c, out);
            }
        }
    }
    let mut order = Vec::new();
    for &r in doc.roots() {
        walk(doc, r, &mut order);
    }
    assert_eq!(order, (0..doc.len()).collect::<Vec<_>>(), "arena order is document order");
}

/// A document built from a string of builder operations: `o` opens a
/// `div`, `s` a `span`, `c` closes, `t` adds text, `m` a comment and `v`
/// a void `br`.
fn build(ops: &str) -> Document {
    let mut b = Builder::new();
    for (i, op) in ops.chars().enumerate() {
        match op {
            'o' => b.open("div").attr("class", "a"),
            's' => b.open("SPAN"),
            'c' => b.close(),
            't' => b.text(format!("t{i}")),
            'm' => b.comment("note"),
            _ => b.void("br"),
        };
    }
    b.finish()
}

prop_check! {
    /// The parser never panics, whatever bytes arrive.
    fn parser_total_on_arbitrary_input(input in pattern("\\PC{0,300}")) {
        let _ = parse(&input);
    }

    /// Parsing is idempotent through a render cycle: parse → render →
    /// parse → render reaches a fixpoint after the first render.
    fn render_parse_fixpoint(input in pattern("[ -~]{0,200}")) {
        let once = parse(&input).render();
        let twice = parse(&once).render();
        assert_eq!(once, twice);
    }

    /// Every selector hit is genuinely an element with the queried tag.
    fn tag_selection_sound(tag in pattern("(div|span|a|p|li)"), input in pattern("[ -~]{0,200}")) {
        let doc = parse(&input);
        let sel = Selector::parse(&tag).unwrap();
        for el in doc.select(&sel) {
            assert_eq!(el.tag(), tag.as_str());
        }
    }

    /// Documents built from balanced markup survive a roundtrip with
    /// attribute values intact.
    fn attr_values_survive(value in pattern("[a-zA-Z0-9 ._/-]{0,40}")) {
        let html = format!(r#"<div data-x="{value}">t</div>"#);
        let doc = parse(&html);
        let el = doc.select_first(&Selector::parse("div").unwrap()).unwrap();
        assert_eq!(el.attr("data-x"), Some(value.as_str()));
        // And through a render cycle.
        let doc2 = parse(&doc.render());
        let el2 = doc2.select_first(&Selector::parse("div").unwrap()).unwrap();
        assert_eq!(el2.attr("data-x"), Some(value.as_str()));
    }

    /// Selector parsing never panics.
    fn selector_parse_total(input in pattern("\\PC{0,60}")) {
        let _ = Selector::parse(&input);
    }

    /// The single-pass parser builds exactly the reference's document on
    /// arbitrary text.
    fn parse_matches_reference_on_arbitrary_input(input in pattern("\\PC{0,300}")) {
        assert_same_as_reference(&input);
    }

    /// … and on tag soup.
    fn parse_matches_reference_on_tag_soup(input in pattern(SOUP)) {
        assert_same_as_reference(&input);
    }

    /// `unescape` copies `&`-free runs whole and decodes as the
    /// char-at-a-time reference does.
    fn unescape_matches_reference(input in pattern(ENTITY_SOUP)) {
        assert_eq!(unescape(&input), reference::unescape(&input));
    }

    /// Parent links and document order hold on parsed documents.
    fn parsed_documents_link_parents_in_document_order(input in pattern(SOUP)) {
        assert_links_and_order(&parse(&input));
    }

    /// … and on documents built with the `Builder`, balanced or not.
    fn built_documents_link_parents_in_document_order(ops in pattern("[osctmv]{0,80}")) {
        assert_links_and_order(&build(&ops));
    }

    /// `select_first` stops early but finds the first of `select`'s
    /// matches, on the document and under each top-level element.
    fn select_first_is_the_first_of_select(input in pattern(SOUP)) {
        let doc = parse(&input);
        let selectors =
            ["div", "p", ".a", "div .b", "[data-field=title]", "a[href]", "div p", "#x", "span"]
                .map(|s| Selector::parse(s).unwrap());
        for selector in &selectors {
            let all = doc.select(selector);
            assert_eq!(doc.select_first(selector).map(|e| e.id()), all.first().map(|e| e.id()));
        }
        let root_scoped = doc.roots().iter().map(|&r| doc.element(r));
        for el in root_scoped.filter(|e| !e.tag().is_empty()) {
            for selector in &selectors {
                let all = el.select(selector);
                assert_eq!(el.select_first(selector).map(|e| e.id()), all.first().map(|e| e.id()));
            }
        }
    }
}
