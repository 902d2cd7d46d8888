//! An arena-backed DOM tree with a builder API and a renderer.

use crate::escape::{escape_attr, escape_text};
use crate::select::Selector;

/// Index of a node in its document's arena.
pub type NodeId = usize;

/// Elements that never have children and render without a closing tag.
pub const VOID_ELEMENTS: &[&str] =
    &["br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "wbr"];

/// One DOM node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// An element: tag name, attributes in source order, child node ids.
    Element {
        /// Tag.
        tag: String,
        /// Attrs.
        attrs: Vec<(String, String)>,
        /// Children.
        children: Vec<NodeId>,
    },
    /// A text node (unescaped content).
    Text(String),
    /// A comment (`<!-- ... -->`).
    Comment(String),
}

/// A parsed or built HTML document.
///
/// Nodes live in an arena; the document root is a virtual element that holds
/// top-level nodes. Use [`Document::select`] to query, [`Document::render`]
/// to serialize.
///
/// Nodes are only ever attached at creation, as the last child of an open
/// element (or as a new top-level node), so the arena is in document order
/// and each node's parent is known when it is pushed.
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<Node>,
    /// `parents[id]`: the element holding `id`, `None` for top-level nodes.
    parents: Vec<Option<NodeId>>,
    root_children: Vec<NodeId>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Document {
        Document { nodes: Vec::new(), parents: Vec::new(), root_children: Vec::new() }
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the document holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Top-level node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.root_children
    }

    /// Push `node` as the last child of `parent` (or as a new top-level
    /// node) and return its id.
    pub(crate) fn attach(&mut self, parent: Option<NodeId>, node: Node) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(node);
        self.parents.push(parent);
        match parent {
            Some(p) => {
                if let Node::Element { children, .. } = &mut self.nodes[p] {
                    children.push(id);
                }
            }
            None => self.root_children.push(id),
        }
        id
    }

    /// Wrap a node id for ergonomic traversal.
    pub fn element(&self, id: NodeId) -> ElementRef<'_> {
        ElementRef { doc: self, id }
    }

    /// Element ids in document order (the arena's order).
    fn element_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n, Node::Element { .. }))
            .map(|(id, _)| id)
    }

    /// Elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'_>> {
        self.element_ids()
            .filter(|&id| selector.matches(self, id))
            .map(|id| self.element(id))
            .collect()
    }

    /// First element matching a selector; the walk stops there.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'_>> {
        self.element_ids().find(|&id| selector.matches(self, id)).map(|id| self.element(id))
    }

    /// Parent element of `id`; `None` for a top-level node.
    pub fn parent_of(&self, id: NodeId) -> Option<NodeId> {
        self.parents[id]
    }

    /// Serialize the document to HTML.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &id in &self.root_children {
            self.render_node(id, &mut out);
        }
        out
    }

    fn render_node(&self, id: NodeId, out: &mut String) {
        match &self.nodes[id] {
            Node::Text(t) => out.push_str(&escape_text(t)),
            Node::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
            Node::Element { tag, attrs, children } => {
                out.push('<');
                out.push_str(tag);
                for (k, v) in attrs {
                    out.push(' ');
                    out.push_str(k);
                    out.push_str("=\"");
                    out.push_str(&escape_attr(v));
                    out.push('"');
                }
                out.push('>');
                if !VOID_ELEMENTS.contains(&tag.as_str()) {
                    for &c in children {
                        self.render_node(c, out);
                    }
                    out.push_str("</");
                    out.push_str(tag);
                    out.push('>');
                }
            }
        }
    }
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

/// A borrowed view of an element node.
#[derive(Debug, Clone, Copy)]
pub struct ElementRef<'a> {
    doc: &'a Document,
    id: NodeId,
}

impl<'a> ElementRef<'a> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Tag name, lowercase.
    pub fn tag(&self) -> &'a str {
        match self.doc.node(self.id) {
            Node::Element { tag, .. } => tag,
            _ => "",
        }
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&'a str> {
        match self.doc.node(self.id) {
            Node::Element { attrs, .. } => attrs
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.as_str()),
            _ => None,
        }
    }

    /// `true` if the element carries the class.
    pub fn has_class(&self, class: &str) -> bool {
        self.attr("class").is_some_and(|c| c.split_whitespace().any(|have| have == class))
    }

    /// Child element refs.
    pub fn children(&self) -> Vec<ElementRef<'a>> {
        match self.doc.node(self.id) {
            Node::Element { children, .. } => children
                .iter()
                .filter(|&&c| matches!(self.doc.node(c), Node::Element { .. }))
                .map(|&c| ElementRef { doc: self.doc, id: c })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Concatenated text content of the subtree, whitespace-normalized:
    /// the words of every text node, in document order, joined by single
    /// spaces.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.push_words(self.id, &mut out);
        out
    }

    fn push_words(&self, id: NodeId, out: &mut String) {
        match self.doc.node(id) {
            Node::Text(t) => {
                for word in t.split_whitespace() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(word);
                }
            }
            Node::Element { children, .. } => {
                for &c in children {
                    self.push_words(c, out);
                }
            }
            Node::Comment(_) => {}
        }
    }

    /// Descendant element ids in document order.
    fn descendant_ids(&self) -> impl Iterator<Item = NodeId> + 'a {
        let doc = self.doc;
        let mut stack: Vec<NodeId> = match doc.node(self.id) {
            Node::Element { children, .. } => children.iter().rev().copied().collect(),
            _ => Vec::new(),
        };
        std::iter::from_fn(move || {
            while let Some(id) = stack.pop() {
                if let Node::Element { children, .. } = doc.node(id) {
                    stack.extend(children.iter().rev());
                    return Some(id);
                }
            }
            None
        })
    }

    /// Descendant elements matching a selector, in document order.
    pub fn select(&self, selector: &Selector) -> Vec<ElementRef<'a>> {
        let doc = self.doc;
        self.descendant_ids()
            .filter(|&id| selector.matches(doc, id))
            .map(|id| ElementRef { doc, id })
            .collect()
    }

    /// First descendant matching a selector; the walk stops there.
    pub fn select_first(&self, selector: &Selector) -> Option<ElementRef<'a>> {
        let doc = self.doc;
        self.descendant_ids().find(|&id| selector.matches(doc, id)).map(|id| ElementRef { doc, id })
    }

    /// The document this element belongs to.
    pub fn document(&self) -> &'a Document {
        self.doc
    }
}

/// A fluent builder for constructing documents in marketplace templates.
///
/// ```
/// use acctrade_html::dom::Builder;
///
/// let mut b = Builder::new();
/// b.open("div").attr("class", "offer");
/// b.open("a").attr("href", "/offer/1").text("TikTok 2.1M").close();
/// b.close();
/// let html = b.finish().render();
/// assert!(html.contains("class=\"offer\""));
/// ```
pub struct Builder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Builder {
    /// Start building an empty document.
    pub fn new() -> Builder {
        Builder { doc: Document::new(), stack: Vec::new() }
    }

    /// Open an element and descend into it.
    pub fn open(&mut self, tag: &str) -> &mut Builder {
        let tag = tag.to_ascii_lowercase();
        let element = Node::Element { tag, attrs: Vec::new(), children: Vec::new() };
        let id = self.doc.attach(self.stack.last().copied(), element);
        self.stack.push(id);
        self
    }

    /// Set an attribute on the innermost open element.
    pub fn attr(&mut self, name: &str, value: impl Into<String>) -> &mut Builder {
        if let Some(&id) = self.stack.last() {
            if let Node::Element { attrs, .. } = &mut self.doc.nodes[id] {
                attrs.push((name.to_ascii_lowercase(), value.into()));
            }
        }
        self
    }

    /// Append a text node to the innermost open element.
    pub fn text(&mut self, content: impl Into<String>) -> &mut Builder {
        self.doc.attach(self.stack.last().copied(), Node::Text(content.into()));
        self
    }

    /// Append a comment node.
    pub fn comment(&mut self, content: impl Into<String>) -> &mut Builder {
        self.doc.attach(self.stack.last().copied(), Node::Comment(content.into()));
        self
    }

    /// Open a void element (no children, self-closing render).
    pub fn void(&mut self, tag: &str) -> &mut Builder {
        self.open(tag).close()
    }

    /// Close the innermost open element.
    pub fn close(&mut self) -> &mut Builder {
        self.stack.pop();
        self
    }

    /// Shorthand: `<tag>text</tag>`.
    pub fn leaf(&mut self, tag: &str, text: &str) -> &mut Builder {
        self.open(tag).text(text).close()
    }

    /// Finish building; closes any still-open elements.
    pub fn finish(mut self) -> Document {
        self.stack.clear();
        self.doc
    }
}

impl Default for Builder {
    fn default() -> Self {
        Builder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_nested_markup() {
        let mut b = Builder::new();
        b.open("ul").attr("id", "offers");
        for i in 0..2 {
            b.open("li").leaf("span", &format!("offer {i}")).close();
        }
        b.close();
        let html = b.finish().render();
        assert_eq!(
            html,
            "<ul id=\"offers\"><li><span>offer 0</span></li><li><span>offer 1</span></li></ul>"
        );
    }

    #[test]
    fn text_is_escaped_on_render() {
        let mut b = Builder::new();
        b.leaf("p", "a < b & c");
        assert_eq!(b.finish().render(), "<p>a &lt; b &amp; c</p>");
    }

    #[test]
    fn void_elements_render_without_closing_tag() {
        let mut b = Builder::new();
        b.open("div").void("br").close();
        assert_eq!(b.finish().render(), "<div><br></div>");
    }

    #[test]
    fn element_text_concatenates_subtree() {
        let mut b = Builder::new();
        b.open("div").text("price: ").leaf("b", "$157").text(" total").close();
        let doc = b.finish();
        let root = doc.element(doc.roots()[0]);
        assert_eq!(root.text(), "price: $157 total");
    }

    #[test]
    fn classes_parse() {
        let mut b = Builder::new();
        b.open("div").attr("class", "offer featured sold").close();
        let doc = b.finish();
        let el = doc.element(doc.roots()[0]);
        for class in ["offer", "featured", "sold"] {
            assert!(el.has_class(class), "{class}");
        }
        assert!(!el.has_class("off"));
        assert!(!el.has_class("offer featured"));
    }

    #[test]
    fn unbalanced_builder_is_tolerated() {
        let mut b = Builder::new();
        b.open("div").open("span").text("dangling");
        let doc = b.finish(); // closes implicitly
        assert!(doc.render().contains("dangling"));
    }
}
