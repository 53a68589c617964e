//! Scan/project and store operators.
//!
//! Cost model mapping (paper §2.1):
//!
//! * scan: `(R_i/P) * IO` — one sequential page read per page, charged by
//!   the heap file;
//! * select, "getting tuple off data page": `|R_i| * (t_r + t_w)` —
//!   charged here per tuple (the `t_w` is the copy out of the page buffer;
//!   projection rides along);
//! * store: `(result_bytes/P) * IO` page writes plus nothing per tuple —
//!   the `t_w` of "generating result tuples" is charged when the hash
//!   table drains.

use crate::error::ExecError;
use crate::node::NodeCtx;
use adaptagg_model::{CostEvent, CostTracker, ResultRow, Value};
use adaptagg_storage::{HeapFile, Page};

/// Sequentially scan the node's file `name`, apply the WHERE conjunction
/// `filter` (over base columns, before projection), project each passing
/// tuple onto `columns`, and feed it to `consume`. Charges scan I/O and
/// select CPU; filtered-out tuples pay `t_r` (they were read off the
/// page) but not the `t_w` copy-out.
///
/// `consume` receives the node context back, so it can route tuples into
/// exchanges or hash tables (which charge their own costs). The tuple
/// slice is only valid for the duration of the call — the scan reuses its
/// scratch buffers across tuples; copy (`to_vec`) to retain.
pub fn scan_project<F>(
    ctx: &mut NodeCtx,
    name: &str,
    filter: &[adaptagg_model::Predicate],
    columns: &[usize],
    mut consume: F,
) -> Result<usize, ExecError>
where
    F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
{
    // Take the file out of the disk for the duration of the scan so the
    // consumer can freely use `ctx` (including `ctx.disk`).
    let file = ctx.disk.take(name)?;
    let pages = file.page_count();
    let result = scan_project_file(ctx, &file, filter, columns, 0, pages, &mut consume);
    ctx.disk.put(name, file);
    result
}

/// [`scan_project`] restricted to the page range `[start_page, end_page)`
/// — the recovery layer's unit of progress: a restarted node scans only
/// the pages past its last durable checkpoint. Charges exactly what a
/// full scan charges for those pages.
pub fn scan_project_range<F>(
    ctx: &mut NodeCtx,
    name: &str,
    filter: &[adaptagg_model::Predicate],
    columns: &[usize],
    start_page: usize,
    end_page: usize,
    mut consume: F,
) -> Result<usize, ExecError>
where
    F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
{
    let file = ctx.disk.take(name)?;
    let end = end_page.min(file.page_count());
    let result = scan_project_file(ctx, &file, filter, columns, start_page, end, &mut consume);
    ctx.disk.put(name, file);
    result
}

/// What [`scan_project_pages`] offers its consumer.
#[derive(Debug, Clone, Copy)]
pub enum ScanInput<'a> {
    /// A whole base page, its sequential read already charged. A
    /// consumer that takes it (`Ok(true)`) owns all of its per-tuple
    /// work: fault ticks, charges and consumption. One that declines
    /// (`Ok(false)`, having done nothing) gets the page row by row.
    Page(&'a Page),
    /// One projected tuple from the row-at-a-time loop, exactly as
    /// [`scan_project`] feeds it (the return value is ignored).
    Row(&'a [Value]),
}

/// [`scan_project`] without a filter, with a page-at-a-time arm: each
/// page is first offered whole to `consume`, and only a declined page
/// runs the row-at-a-time loop.
pub fn scan_project_pages<F>(
    ctx: &mut NodeCtx,
    name: &str,
    columns: &[usize],
    mut consume: F,
) -> Result<(), ExecError>
where
    F: FnMut(&mut NodeCtx, ScanInput<'_>) -> Result<bool, ExecError>,
{
    let file = ctx.disk.take(name)?;
    let mut rows = RowScan::new(&[], columns);
    let result = (|| {
        for pi in 0..file.page_count() {
            ctx.clock.record(CostEvent::PageReadSeq, 1);
            let page = file.page(pi)?;
            if !consume(ctx, ScanInput::Page(page))? {
                rows.page(ctx, page, &mut |ctx, values| {
                    consume(ctx, ScanInput::Row(values)).map(|_| ())
                })?;
            }
        }
        Ok(())
    })();
    ctx.disk.put(name, file);
    result
}

fn scan_project_file<F>(
    ctx: &mut NodeCtx,
    file: &HeapFile,
    filter: &[adaptagg_model::Predicate],
    columns: &[usize],
    start_page: usize,
    end_page: usize,
    consume: &mut F,
) -> Result<usize, ExecError>
where
    F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
{
    let mut rows = RowScan::new(filter, columns);
    let mut n = 0usize;
    for pi in start_page..end_page {
        ctx.clock.record(CostEvent::PageReadSeq, 1);
        n += rows.page(ctx, file.page(pi)?, consume)?;
    }
    Ok(n)
}

/// The row-at-a-time scan loop: the filter, the projection, the decode
/// mask, and the scratch rows it materializes into.
struct RowScan<'a> {
    filter: &'a [adaptagg_model::Predicate],
    columns: &'a [usize],
    /// Columns the scan must materialize: whatever the filter or the
    /// projection reads. `None` (empty projection) passes the whole tuple
    /// through, so everything is needed. Wide padding columns outside
    /// the mask are skipped positionally by the decoder (no payload copy).
    select: Option<Vec<bool>>,
    raw: Vec<Value>,
    projected: Vec<Value>,
}

impl<'a> RowScan<'a> {
    fn new(filter: &'a [adaptagg_model::Predicate], columns: &'a [usize]) -> Self {
        let select = (!columns.is_empty()).then(|| {
            let top = columns
                .iter()
                .chain(filter.iter().map(|p| &p.column))
                .copied()
                .max()
                .unwrap_or(0);
            let mut mask = vec![false; top + 1];
            for &c in columns {
                mask[c] = true;
            }
            for p in filter {
                mask[p.column] = true;
            }
            mask
        });
        RowScan {
            filter,
            columns,
            select,
            raw: Vec::new(),
            projected: Vec::new(),
        }
    }

    /// Scan one page (its read already charged): per tuple, tick the
    /// fault plan, charge `t_r`, filter, charge `t_w`, project and
    /// consume. Returns the tuples that passed the filter.
    fn page<F>(
        &mut self,
        ctx: &mut NodeCtx,
        page: &Page,
        consume: &mut F,
    ) -> Result<usize, ExecError>
    where
        F: FnMut(&mut NodeCtx, &[Value]) -> Result<(), ExecError>,
    {
        let mut n = 0usize;
        let mut cursor = page.cursor();
        while cursor.next_select_into(self.select.as_deref(), &mut self.raw)? {
            // Scanned tuples are the fault plan's crash currency — a node
            // scheduled to crash at tuple K dies right here.
            ctx.fault_tick()?;
            ctx.clock.record(CostEvent::TupleRead, 1);
            if !adaptagg_model::matches_all(self.filter, &self.raw)? {
                continue;
            }
            ctx.clock.record(CostEvent::TupleWrite, 1);
            if self.columns.is_empty() {
                consume(ctx, &self.raw)?;
            } else {
                self.projected.clear();
                for &c in self.columns {
                    self.projected.push(
                        self.raw
                            .get(c)
                            .ok_or(adaptagg_model::ModelError::ColumnOutOfRange {
                                column: c,
                                arity: self.raw.len(),
                            })?
                            .clone(),
                    );
                }
                consume(ctx, &self.projected)?;
            }
            n += 1;
        }
        Ok(n)
    }
}

/// Store finalized result rows into the node's `result` file, charging one
/// sequential page write per result page.
pub fn store_results(ctx: &mut NodeCtx, rows: &[ResultRow]) -> Result<(), ExecError> {
    let page_bytes = ctx.params().page_bytes;
    let file = ctx.disk.get_or_create("result", page_bytes);
    let mut values: Vec<Value> = Vec::new();
    for row in rows {
        values.clear();
        values.extend_from_slice(row.key.values());
        values.extend_from_slice(&row.aggs);
        file.append(&values)?;
    }
    let pages = ctx.disk.get("result")?.page_count() as u64;
    // Charge all result pages once, at the end of the store (the file may
    // be appended to only once per run).
    ctx.clock.record(CostEvent::PageWriteSeq, pages);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptagg_model::{CostParams, GroupKey, NetworkKind};
    use adaptagg_net::Fabric;
    use adaptagg_storage::SimDisk;

    fn ctx_with_file(tuples: &[Vec<Value>], page_bytes: usize) -> NodeCtx {
        let mut eps = Fabric::new(1, NetworkKind::high_speed_default()).into_endpoints();
        let file =
            HeapFile::from_tuples(page_bytes, tuples.iter().map(|t| t.as_slice())).unwrap();
        let mut disk = SimDisk::new();
        disk.put("base", file);
        NodeCtx::new(eps.pop().unwrap(), disk, CostParams::paper_default())
    }

    #[test]
    fn scan_projects_and_charges() {
        let tuples: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Str("pad".into())])
            .collect();
        let mut ctx = ctx_with_file(&tuples, 128);
        let mut seen = Vec::new();
        let n = scan_project(&mut ctx, "base", &[], &[1, 0], |_ctx, vals| {
            seen.push(vals.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 10);
        assert_eq!(seen[3], vec![Value::Int(6), Value::Int(3)]);

        // Charges: 10 t_r + 10 t_w + pages * IO.
        let b = ctx.clock.breakdown();
        let p = CostParams::paper_default();
        let expect_cpu = 10.0 * (p.t_read() + p.t_write());
        assert!((b.cpu_ms - expect_cpu).abs() < 1e-9, "cpu {}", b.cpu_ms);
        assert!(b.io_ms > 0.0);
        // File still present afterwards.
        assert!(ctx.disk.get("base").is_ok());
    }

    #[test]
    fn range_scan_splits_cover_the_full_scan_exactly() {
        // Scanning [0, k) then [k, end) must see the same tuples and
        // charge the same costs as one full scan.
        let tuples: Vec<Vec<Value>> = (0..40).map(|i| vec![Value::Int(i)]).collect();
        let mut full_ctx = ctx_with_file(&tuples, 128);
        let mut full = Vec::new();
        scan_project(&mut full_ctx, "base", &[], &[], |_ctx, vals| {
            full.push(vals.to_vec());
            Ok(())
        })
        .unwrap();

        let mut ctx = ctx_with_file(&tuples, 128);
        let pages = ctx.disk.get("base").unwrap().page_count();
        assert!(pages >= 2, "need a multi-page file for the split");
        let mut seen = Vec::new();
        for (a, b) in [(0, pages / 2), (pages / 2, pages)] {
            scan_project_range(&mut ctx, "base", &[], &[], a, b, |_ctx, vals| {
                seen.push(vals.to_vec());
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(seen, full);
        assert_eq!(ctx.clock.now_ms(), full_ctx.clock.now_ms());
    }

    #[test]
    fn range_scan_clamps_past_the_end() {
        let tuples = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        let mut n = 0;
        scan_project_range(&mut ctx, "base", &[], &[], 0, 999, |_ctx, _vals| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn filter_columns_are_decoded_even_when_not_projected() {
        // The select mask must cover filter columns, or predicates would
        // see Null placeholders and silently drop every row.
        let tuples: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2), Value::Str("pad".into())])
            .collect();
        let mut ctx = ctx_with_file(&tuples, 128);
        let filter = [adaptagg_model::Predicate::new(
            1,
            adaptagg_model::Compare::Ge,
            Value::Int(10),
        )];
        let mut seen = Vec::new();
        scan_project(&mut ctx, "base", &filter, &[0], |_ctx, vals| {
            seen.push(vals.to_vec());
            Ok(())
        })
        .unwrap();
        let expect: Vec<Vec<Value>> = (5..10).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_empty_projection_passes_whole_tuple() {
        let tuples = vec![vec![Value::Int(5), Value::Int(6)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        scan_project(&mut ctx, "base", &[], &[], |_ctx, vals| {
            assert_eq!(vals.len(), 2);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn scan_missing_file_errors() {
        let mut ctx = ctx_with_file(&[], 128);
        let r = scan_project(&mut ctx, "nope", &[], &[], |_, _| Ok(()));
        assert!(r.is_err());
    }

    #[test]
    fn scan_bad_column_errors() {
        let tuples = vec![vec![Value::Int(1)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        let r = scan_project(&mut ctx, "base", &[], &[4], |_, _| Ok(()));
        assert!(r.is_err());
        // File restored even on error.
        assert!(ctx.disk.get("base").is_ok());
    }

    #[test]
    fn store_writes_rows_and_charges_pages() {
        let mut ctx = ctx_with_file(&[], 4096);
        let rows: Vec<ResultRow> = (0..100)
            .map(|i| {
                ResultRow::new(
                    GroupKey::new(vec![Value::Int(i)]),
                    vec![Value::Int(i * 10)],
                )
            })
            .collect();
        store_results(&mut ctx, &rows).unwrap();
        let f = ctx.disk.get("result").unwrap();
        assert_eq!(f.tuple_count(), 100);
        assert!(ctx.clock.breakdown().io_ms > 0.0);
    }

    #[test]
    fn consumer_can_use_ctx_disk() {
        // The scan must not hold a borrow that blocks the consumer from
        // writing to another file on the same disk.
        let tuples = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let mut ctx = ctx_with_file(&tuples, 128);
        scan_project(&mut ctx, "base", &[], &[], |ctx, vals| {
            ctx.disk
                .get_or_create("copy", 128)
                .append(vals)
                .map_err(ExecError::from)
        })
        .unwrap();
        assert_eq!(ctx.disk.get("copy").unwrap().tuple_count(), 2);
    }
}
