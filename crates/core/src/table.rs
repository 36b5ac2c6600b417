//! ASCII rendering of commutativity relations in the style of the paper's
//! Figures 6-1 and 6-2 (an `x` marks a pair that does *not* commute).

use crate::adt::Adt;
use crate::conflict::{Conflict, TableConflict};

/// Core matrix renderer: `labels` index both rows and columns; `holds[i][j]`
/// true ⇒ blank cell, false ⇒ `x`.
pub fn render_matrix(labels: &[String], holds: &[Vec<bool>], caption: &str) -> String {
    let width = labels.iter().map(|l| l.len()).max().unwrap_or(1).max(3) + 2;
    let mut out = String::new();
    // Header
    out.push_str(&format!("{:width$}", "", width = width));
    for l in labels {
        out.push_str(&format!("{l:^width$}", width = width));
    }
    out.push('\n');
    for (l, row) in labels.iter().zip(holds) {
        out.push_str(&format!("{l:<width$}", width = width));
        for &cell in row {
            let mark = if cell { "" } else { "x" };
            out.push_str(&format!("{mark:^width$}", width = width));
        }
        out.push('\n');
    }
    out.push_str(&format!("\n  x = {caption}\n"));
    out
}

/// Render a conflict relation over its alphabet: `x` marks a conflicting
/// (requested, held) pair. Rows are requested operations, columns held.
pub fn render_conflicts<A: Adt>(t: &TableConflict<A>) -> String {
    let labels: Vec<String> = t.alphabet().iter().map(|o| format!("{o:?}")).collect();
    let holds: Vec<Vec<bool>> = t
        .alphabet()
        .iter()
        .map(|p| t.alphabet().iter().map(|q| !t.conflicts(p, q)).collect())
        .collect();
    render_matrix(
        &labels,
        &holds,
        &format!(
            "the row operation conflicts with the held column operation ({})",
            Conflict::<A>::name(t)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_marks_and_caption() {
        let labels = vec!["a".to_string(), "bb".to_string()];
        let holds = vec![vec![true, false], vec![false, true]];
        let s = render_matrix(&labels, &holds, "conflict");
        assert!(s.contains('x'));
        assert!(s.contains("x = conflict"));
        // Diagonal is blank: exactly two x marks.
        assert_eq!(s.matches('x').count(), 2 + 1 /* caption */);
    }

    #[test]
    fn renders_conflict_tables() {
        use crate::adt::test_adt::*;
        use crate::adt::Op;
        let inc = Op::<MiniCounter>::new(CInv::Inc, CResp::Ok);
        let read = Op::<MiniCounter>::new(CInv::Read, CResp::Val(0));
        let t = TableConflict::new(
            "demo",
            vec![inc.clone(), read.clone()],
            &[(inc.clone(), read.clone())],
        );
        let s = render_conflicts(&t);
        assert!(s.contains("demo"));
        // Exactly one conflicting pair ⇒ one x in the body plus the caption.
        assert_eq!(s.matches('x').count(), 1 + 1);
    }

    #[test]
    fn header_includes_all_labels() {
        let labels = vec!["inc".to_string(), "dec".to_string(), "read".to_string()];
        let holds = vec![vec![true; 3]; 3];
        let s = render_matrix(&labels, &holds, "none");
        let header = s.lines().next().unwrap();
        for l in &labels {
            assert!(header.contains(l.as_str()));
        }
    }
}
