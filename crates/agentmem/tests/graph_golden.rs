//! Golden test for the claim graph.
//!
//! Every page (`full_text`, URL) of the four default scenario webs is
//! absorbed into one graph, in order, with varying sessions, and every
//! fifth entry is removed along the way. One `label fingerprint` line
//! per item is compared with `graph_golden.golden`:
//!
//! * the graph's `to_bytes`, `stats` and `host_stats`, and the
//!   re-encoding of `from_bytes(to_bytes)`;
//! * every node's `sources` and corroboration;
//! * a `KnowledgeStore::from_json` rebuild whose file holds more entries
//!   than its capacity, before and after memorizing past it.
//!
//! Fingerprints are FNV-1a 64, as `ira_simllm::fingerprint64` computes,
//! over the item's bytes or its `Debug` text. On a mismatch the test prints each
//! differing label, then the full replacement golden text. Replace the
//! golden file with that text only after a deliberate change.

use ira_agentmem::{split_url, ClaimGraph, KnowledgeStore, SourceRef};
use ira_webcorpus::{Corpus, CorpusConfig};
use ira_worldmodel::scenario::ScenarioRegistry;
use ira_worldmodel::World;

const GOLDEN: &str = include_str!("graph_golden.golden");

/// One page of a default web: (web index, text, URL).
type Page = (usize, String, String);

fn pages() -> Vec<Page> {
    let world = World::standard();
    let mut pages = Vec::new();
    for (web, name) in ScenarioRegistry::standard().names().into_iter().enumerate() {
        let corpus = Corpus::generate(
            &world,
            CorpusConfig {
                scenario: name,
                ..CorpusConfig::default()
            },
        );
        pages.extend(
            corpus
                .iter()
                .map(|d| (web, d.full_text(), d.url().to_string())),
        );
    }
    pages
}

/// Absorb every page, entry `i` from page `i`, removing every fifth
/// entry four absorbs after it went in.
fn build(pages: &[Page]) -> ClaimGraph {
    let mut g = ClaimGraph::default();
    for (i, (web, text, url)) in pages.iter().enumerate() {
        let (host, path) = split_url(url);
        let entry_id = i as u64;
        g.absorb(
            entry_id,
            text,
            SourceRef {
                host,
                path,
                fetched_at_us: 1_000 * entry_id,
                session: (web * 7 + i % 3) as u32,
                entry_id,
            },
        );
        if i % 5 == 4 {
            g.remove_entry(entry_id - 4);
        }
    }
    g
}

/// `ira_simllm::fingerprint64` over raw bytes (snapshots are not UTF-8).
fn fp(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The graph-wide items of the graph.
fn graph_items(g: &ClaimGraph, items: &mut Vec<(String, String)>) {
    let bytes = g.to_bytes();
    items.push(("graph/to_bytes".into(), fp(&bytes)));
    items.push((
        "graph/stats".into(),
        fp(format!("{:?}", g.stats()).as_bytes()),
    ));
    items.push((
        "graph/host_stats".into(),
        fp(format!("{:?}", g.host_stats()).as_bytes()),
    ));
    let back = ClaimGraph::from_bytes(&bytes).expect("own snapshot decodes");
    items.push(("graph/from_bytes".into(), fp(&back.to_bytes())));
}

/// A store file whose capacity is below its entry count, rebuilt
/// through `from_json` and then pushed further past its capacity, so
/// every memorise evicts.
fn store_items(pages: &[Page], items: &mut Vec<(String, String)>) {
    let store = KnowledgeStore::with_defaults();
    for (i, (_, text, url)) in pages.iter().take(40).enumerate() {
        store.memorize("topic", text, url, "page", i as u64 * 1_000, 0.5);
    }
    let json = store.to_json();
    let from = "\"capacity\": 2000,";
    assert_eq!(json.matches(from).count(), 1, "{from}");
    let json = json.replace(from, "\"capacity\": 30,");
    let rebuilt = KnowledgeStore::from_json(&json).unwrap();
    items.push(("store/rebuilt".into(), fp(&rebuilt.graph_to_bytes())));
    for (i, (_, text, url)) in pages.iter().enumerate().skip(40).take(40) {
        rebuilt.memorize("topic", text, url, "page", i as u64 * 1_000, 0.5);
    }
    items.push(("store/evicted".into(), fp(&rebuilt.graph_to_bytes())));
    items.push((
        "store/evicted_host_stats".into(),
        fp(format!("{:?}", rebuilt.graph_host_stats()).as_bytes()),
    ));
}

fn items() -> Vec<(String, String)> {
    let pages = pages();
    let mut items = Vec::new();

    let g = build(&pages);
    graph_items(&g, &mut items);
    for node in g.nodes() {
        let line = format!("{:?} {}", g.sources(node.id), g.corroboration(node.id));
        let term = g.term_text(node.id).unwrap_or("?");
        items.push((
            format!("graph/node/{}/{term}", node.id),
            fp(line.as_bytes()),
        ));
    }

    store_items(&pages, &mut items);
    items
}

#[test]
fn claim_graph_matches_the_golden_fingerprints() {
    let golden: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter_map(|line| line.split_once(' '))
        .collect();

    let items = items();
    let mut fresh = String::new();
    let mut diffs = Vec::new();
    for (i, (label, fp)) in items.iter().enumerate() {
        fresh.push_str(&format!("{label} {fp}\n"));
        if golden.get(i) != Some(&(label.as_str(), fp.as_str())) {
            diffs.push(label.clone());
        }
    }

    if !diffs.is_empty() || golden.len() != items.len() {
        panic!(
            "{} of {} claim-graph items differ from the golden file ({} golden lines):\n{}\n\n\
             replacement graph_golden.golden:\n{fresh}",
            diffs.len(),
            items.len(),
            golden.len(),
            diffs.join("\n")
        );
    }
}
