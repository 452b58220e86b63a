//! [`TextCache`]: a process-wide, bounded map from exact text to a
//! value that is a pure function of that text, so every session reads
//! each text once. Its two instances are the model's readings (token
//! count and extraction, in [`crate::model`]) and the knowledge store's
//! sparse embeddings (in `ira-agentmem`).

use crate::lexicon::WordBuildHasher;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A value a [`TextCache`] makes from a text and then holds for it.
pub trait TextValue {
    /// The value of `text`. It may keep `text`, the key the cache
    /// holds, at no extra cost.
    fn of_text(text: &Arc<str>) -> Self;

    /// The bytes this value counts against the budget besides its text.
    fn held_bytes(&self) -> usize;
}

/// Values keyed by exact text, holding at most `budget` bytes: each
/// held text's bytes plus its value's [`TextValue::held_bytes`]. When a
/// new entry would overflow the budget the whole map is dropped; values
/// already handed out stay valid, and a re-read yields an equal value.
/// An entry larger than the budget is made and returned but never held.
///
/// Keys are compared in full, so a hash collision never substitutes
/// another text's value. The map hashes them with the unkeyed
/// word-at-a-time `WordHasher`, so no tenant-controlled text may reach
/// it: only the agent's own memory does, which holds pages of the
/// program-generated webs, insights the agent derives from their
/// extractions and the user's own `knowledge.json`. A serve request
/// chooses a scenario, seeds and a question; none of these is ever
/// stored as memory text, and a query is embedded without the cache.
pub struct TextCache<V> {
    budget: usize,
    map: Mutex<TextMap<V>>,
}

struct TextMap<V> {
    values: HashMap<Arc<str>, Arc<V>, WordBuildHasher>,
    held: usize,
}

impl<V: TextValue> TextCache<V> {
    pub const fn new(budget: usize) -> TextCache<V> {
        TextCache {
            budget,
            map: Mutex::new(TextMap {
                values: HashMap::with_hasher(WordBuildHasher::new()),
                held: 0,
            }),
        }
    }

    /// The value of `text`, made under the map's lock on a miss, so
    /// concurrent first reads make it once.
    pub fn read(&self, text: &str) -> Arc<V> {
        self.read_locked(&mut self.lock(), text)
    }

    /// The value of each text, in order, under one lock.
    pub fn read_all(&self, texts: &[String]) -> Vec<Arc<V>> {
        let mut map = self.lock();
        texts
            .iter()
            .map(|text| self.read_locked(&mut map, text))
            .collect()
    }

    fn read_locked(&self, map: &mut TextMap<V>, text: &str) -> Arc<V> {
        if let Some(hit) = map.values.get(text) {
            return Arc::clone(hit);
        }
        let key: Arc<str> = Arc::from(text);
        let value = Arc::new(V::of_text(&key));
        let cost = text.len() + value.held_bytes();
        if cost <= self.budget {
            if map.held + cost > self.budget {
                map.values.clear();
                map.held = 0;
            }
            map.held += cost;
            map.values.insert(key, Arc::clone(&value));
        }
        value
    }

    /// Whether `text` is held.
    pub fn contains(&self, text: &str) -> bool {
        self.lock().values.contains_key(text)
    }

    /// What is held, in no particular order.
    pub fn entries(&self) -> Vec<(Arc<str>, Arc<V>)> {
        self.lock()
            .values
            .iter()
            .map(|(text, value)| (Arc::clone(text), Arc::clone(value)))
            .collect()
    }

    /// The bytes counted against the budget.
    pub fn held(&self) -> usize {
        self.lock().held
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TextMap<V>> {
        self.map.lock().expect("text cache lock")
    }
}
