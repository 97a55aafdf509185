//! The tuple cursor over a relation's leaf pages.
//!
//! A relation on disk is an **interior chain** — pages whose entries
//! list the relation's leaves, each with its tuple count and zone map —
//! and the **leaf pages** those entries point at, each holding `count`
//! encoded tuples. The interior chain is decoded once, when the database
//! opens or a checkpoint publishes it ([`crate::RelationLayout`]); a
//! [`TupleCursor`] is handed the leaves to read (all of them, or the ones
//! a scan's restriction could not prune) and decodes their tuples one at
//! a time through the pager, so a warm scan never touches the disk.

use crate::codec::Reader;
use crate::error::StorageError;
use crate::page::{Page, PageKind};
use crate::pager::Pager;
use std::sync::Arc;
use tspdb_probdb::{Schema, Value};

/// One decoded tuple: the row plus its existence probability
/// (`None` for deterministic relations).
pub type DecodedTuple = (Vec<Value>, Option<f64>);

/// Decoding position inside the current leaf.
#[derive(Debug)]
struct LeafPos {
    id: u64,
    page: Arc<Page>,
    pos: usize,
    remaining: u32,
}

/// Streams the tuples of a list of leaves: `(row, existence probability)`
/// for probabilistic relations, `(row, None)` for deterministic ones.
#[derive(Debug)]
pub struct TupleCursor {
    pager: Arc<Pager>,
    leaves: std::vec::IntoIter<(u64, u32)>,
    schema: Schema,
    probabilistic: bool,
    current: Option<LeafPos>,
}

impl TupleCursor {
    /// A tuple cursor over `leaves` — `(page id, tuple count)` pairs as
    /// the interior entries record them, in tuple order.
    pub fn new(
        pager: Arc<Pager>,
        leaves: Vec<(u64, u32)>,
        schema: Schema,
        probabilistic: bool,
    ) -> Self {
        TupleCursor {
            pager,
            leaves: leaves.into_iter(),
            schema,
            probabilistic,
            current: None,
        }
    }

    /// Fetches the next leaf, checking its kind and that it holds the
    /// tuple count its interior entry records.
    fn next_leaf(&mut self) -> Result<Option<LeafPos>, StorageError> {
        let Some((id, count)) = self.leaves.next() else {
            return Ok(None);
        };
        let page = self.pager.get(id)?;
        let corrupt = |reason: String| Err(StorageError::CorruptPage { page: id, reason });
        if page.kind() != PageKind::Leaf {
            return corrupt(format!("expected a leaf page, found {:?}", page.kind()));
        }
        if page.count() != count {
            return corrupt(format!(
                "interior entry records {count} tuples, leaf holds {}",
                page.count()
            ));
        }
        Ok(Some(LeafPos {
            id,
            remaining: count,
            page,
            pos: 0,
        }))
    }

    /// Decodes the next tuple, or `None` once every leaf is read.
    pub fn next_tuple(&mut self) -> Result<Option<DecodedTuple>, StorageError> {
        let arity = self.schema.arity();
        loop {
            if let Some(cur) = &mut self.current {
                if cur.remaining > 0 {
                    let mut r = Reader::new(&cur.page.payload()[cur.pos..], cur.id);
                    let prob = if self.probabilistic {
                        Some(r.take_f64()?)
                    } else {
                        None
                    };
                    let mut row = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        row.push(r.take_value()?);
                    }
                    cur.pos += r.position();
                    cur.remaining -= 1;
                    return Ok(Some((row, prob)));
                }
            }
            self.current = self.next_leaf()?;
            if self.current.is_none() {
                return Ok(None);
            }
        }
    }
}
