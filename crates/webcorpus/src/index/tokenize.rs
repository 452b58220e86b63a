//! Tokenization for indexing and querying.
//!
//! Lowercase, split on non-alphanumerics, drop stopwords, and apply a
//! light suffix-stripping stem so "cables"/"cable" and
//! "repeaters"/"repeater" co-rank. The stemmer is deliberately tiny —
//! it only strips plural/verbal suffixes that actually occur in this
//! corpus — because an aggressive stemmer would conflate distractor
//! vocabulary with topic vocabulary.

/// Words too common to carry ranking signal.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "can", "do", "for", "from", "had",
    "has", "have", "he", "her", "his", "how", "i", "if", "in", "into", "is", "it", "its", "more",
    "most", "no", "not", "of", "on", "one", "or", "our", "she", "so", "such", "than", "that",
    "the", "their", "them", "then", "there", "these", "they", "this", "those", "to", "two", "up",
    "was", "we", "were", "what", "when", "where", "which", "while", "who", "will", "with", "you",
    "your",
];

/// True if `w` is a stopword (after lowercasing).
pub fn is_stopword(w: &str) -> bool {
    STOPWORDS.binary_search(&w).is_ok()
}

/// Light stemming: strip common English suffixes, keeping at least a
/// 3-character stem.
pub fn stem(word: &str) -> String {
    // "vulnerabilities" -> "vulnerability"
    if let Some(stripped) = word.strip_suffix("ies") {
        if stripped.len() >= 3 {
            return format!("{stripped}y");
        }
    }
    // "linking" -> "link", "connected" -> "connect", "cables" -> "cable"
    for suffix in ["ing", "ed", "ly", "s"] {
        if let Some(stripped) = word.strip_suffix(suffix) {
            if stripped.len() >= 3 {
                return stripped.to_string();
            }
        }
    }
    word.to_string()
}

/// [`stem`] applied to `word` in place, with no allocation.
fn stem_in_place(word: &mut String) {
    if word.len() >= 6 && word.ends_with("ies") {
        word.truncate(word.len() - 3);
        word.push('y');
        return;
    }
    for suffix in ["ing", "ed", "ly", "s"] {
        if word.len() >= suffix.len() + 3 && word.ends_with(suffix) {
            word.truncate(word.len() - suffix.len());
            return;
        }
    }
}

/// Stream the stemmed index terms of `text` to `emit`, in order,
/// building each one in `buf` (cleared first). Yields exactly the terms
/// [`tokenize`] returns without allocating per token; `buf` can be
/// reused across calls.
pub fn for_each_term(text: &str, buf: &mut String, mut emit: impl FnMut(&str)) {
    buf.clear();
    for ch in text.chars() {
        // ASCII first: the same classes and case mapping, but cheaper.
        if ch.is_ascii_alphanumeric() {
            buf.push(ch.to_ascii_lowercase());
        } else if !ch.is_ascii() && ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase());
        } else if !buf.is_empty() {
            emit_term(buf, &mut emit);
        }
    }
    if !buf.is_empty() {
        emit_term(buf, &mut emit);
    }
}

/// Filter, stem and emit the token in `buf`, leaving `buf` empty.
fn emit_term(buf: &mut String, emit: &mut impl FnMut(&str)) {
    if buf.len() >= 2 && !is_stopword(buf) {
        stem_in_place(buf);
        emit(buf);
    }
    buf.clear();
}

/// Tokenize text into stemmed index terms. This is the reference that
/// [`for_each_term`], the path the search engine takes, must match.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            for lower in ch.to_lowercase() {
                current.push(lower);
            }
        } else if !current.is_empty() {
            push_token(&mut out, std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        push_token(&mut out, current);
    }
    out
}

fn push_token(out: &mut Vec<String>, token: String) {
    if token.len() < 2 || is_stopword(&token) {
        return;
    }
    out.push(stem(&token));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_table_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS, "STOPWORDS must stay sorted");
    }

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Submarine Cables, repeaters!"),
            vec!["submarine", "cable", "repeater"]
        );
    }

    #[test]
    fn stopwords_are_dropped() {
        assert_eq!(
            tokenize("the cable is in the ocean"),
            vec!["cable", "ocean"]
        );
    }

    #[test]
    fn stemming_unifies_plurals_and_gerunds() {
        assert_eq!(stem("cables"), "cable");
        assert_eq!(stem("linking"), "link");
        assert_eq!(stem("connected"), "connect");
        assert_eq!(stem("latitudes"), "latitude");
        // short words survive
        assert_eq!(stem("gas"), "gas");
        assert_eq!(stem("bus"), "bus");
    }

    #[test]
    fn numbers_survive_tokenization() {
        assert_eq!(
            tokenize("Dst of -1760 nanotesla in 1859"),
            vec!["dst", "1760", "nanotesla", "1859"]
        );
    }

    #[test]
    fn single_chars_are_dropped() {
        assert_eq!(tokenize("a b c cable"), vec!["cable"]);
    }

    #[test]
    fn unicode_is_handled() {
        let tokens = tokenize("Luleå data-center résumé");
        assert!(tokens.contains(&"luleå".to_string()));
        assert!(tokens.contains(&"résumé".to_string()));
    }

    #[test]
    fn query_and_document_tokenize_identically() {
        let doc = tokenize("The EllaLink submarine cable connects Fortaleza");
        let query = tokenize("ellalink submarine cable fortaleza");
        for q in &query {
            assert!(
                doc.contains(q),
                "query token {q} missing from doc tokens {doc:?}"
            );
        }
    }
}
