// Package storage implements ObliDB's flat storage method (§3.1): rows in
// a series of adjacent sealed blocks with no built-in access-pattern
// protection, so every operation that must be oblivious scans the whole
// table, giving unaffected blocks dummy writes (a re-encryption of the
// data they already hold).
//
// Unlike the paper's one-record-per-block implementation, each sealed
// block packs R records (the paper's design only fixes the *block* as the
// sealed unit). R is public geometry chosen at table creation — by
// default sized so a block holds ~4 KiB of plaintext — and every
// full-table pass costs one AEAD open and one seal per block instead of
// per row, dividing crypto, trace, and allocation cost by R. R = 1
// reproduces the paper's geometry exactly. The trusted metadata per table
// is tiny: the capacity, the used-row count, and the cursor for the
// constant-time insert variant.
package storage

import (
	"fmt"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

// DefaultBlockBytes is the plaintext block size the default packing
// targets: large enough to amortize the fixed per-AEAD-call cost, small
// enough that a single-row RMW does not dominate point updates.
const DefaultBlockBytes = 4096

// DefaultRowsPerBlock returns the packing factor R that makes one block
// hold ~DefaultBlockBytes of plaintext for the schema (at least 1).
func DefaultRowsPerBlock(s *table.Schema) int {
	r := DefaultBlockBytes / s.RecordSize()
	if r < 1 {
		r = 1
	}
	return r
}

// Flat is a flat-method table: ceil(capacity/R) sealed blocks in
// untrusted memory, each packing R records.
type Flat struct {
	enc      *enclave.Enclave
	schema   *table.Schema
	store    *enclave.Store
	name     string
	rpb      int             // R, records per sealed block (public geometry)
	rows     int             // number of used records (trusted metadata)
	appendAt int             // next row slot for the constant-time insert variant
	blk      []byte          // one-block plaintext scratch (hot path, reused)
	dec      *table.BlockBuf // decode scratch for Scan (lazily allocated)
}

// NewFlat creates a flat table with the given fixed capacity in rows and
// the paper's one-record-per-block geometry (R = 1).
func NewFlat(e *enclave.Enclave, name string, schema *table.Schema, capacity int) (*Flat, error) {
	return NewFlatGeom(e, name, schema, capacity, 1)
}

// NewFlatGeom creates a flat table packing rowsPerBlock records into
// each sealed block. The row capacity is rounded up to a whole number of
// blocks; both the block count and R are public.
func NewFlatGeom(e *enclave.Enclave, name string, schema *table.Schema, capacity, rowsPerBlock int) (*Flat, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: flat table %q needs positive capacity, got %d", name, capacity)
	}
	if rowsPerBlock <= 0 {
		return nil, fmt.Errorf("storage: flat table %q needs positive rows per block, got %d", name, rowsPerBlock)
	}
	blocks := (capacity + rowsPerBlock - 1) / rowsPerBlock
	store, err := e.NewStore(name, blocks, schema.BlockSize(rowsPerBlock))
	if err != nil {
		return nil, err
	}
	return &Flat{
		enc:    e,
		schema: schema,
		store:  store,
		name:   name,
		rpb:    rowsPerBlock,
		blk:    make([]byte, schema.BlockSize(rowsPerBlock)),
	}, nil
}

// Name returns the table name.
func (f *Flat) Name() string { return f.name }

// Schema returns the table schema.
func (f *Flat) Schema() *table.Schema { return f.schema }

// Capacity returns the number of row slots (block count × R). Both
// factors are public: this is the size the adversary sees, in rows.
func (f *Flat) Capacity() int { return f.store.Len() * f.rpb }

// NumBlocks returns the number of sealed blocks — the untrusted
// structure's extent, and the unit every trace event indexes.
func (f *Flat) NumBlocks() int { return f.store.Len() }

// RowsPerBlock returns R, the packing factor.
func (f *Flat) RowsPerBlock() int { return f.rpb }

// NumRows returns the used-record count (trusted enclave metadata).
func (f *Flat) NumRows() int { return f.rows }

// Store exposes the underlying untrusted store (for adversary tests and
// operators that stream blocks directly).
func (f *Flat) Store() *enclave.Store { return f.store }

// readBlk reads block b into the table's plaintext scratch.
func (f *Flat) readBlk(b int) error {
	plain, err := f.store.ReadInto(b, f.blk)
	if err != nil {
		return err
	}
	f.blk = plain
	return nil
}

// ReadRow decrypts the block containing row slot i and decodes that
// record, returning a fresh Row the caller owns. One traced block read.
func (f *Flat) ReadRow(i int) (table.Row, bool, error) {
	if i < 0 || i >= f.Capacity() {
		return nil, false, fmt.Errorf("storage: table %q row read out of range: %d of %d", f.name, i, f.Capacity())
	}
	if err := f.readBlk(i / f.rpb); err != nil {
		return nil, false, err
	}
	return f.schema.DecodeRecordAt(f.blk, i%f.rpb)
}

// ReadBlockInto decrypts packed block b into the caller-owned scratch
// buf (which fixes R and is reused across calls, so steady-state scans
// allocate nothing per block).
func (f *Flat) ReadBlockInto(b int, buf *table.BlockBuf) error {
	if err := f.readBlk(b); err != nil {
		return err
	}
	return f.schema.DecodeBlockInto(buf, f.blk)
}

// SetRow writes a row (or dummy) to row slot i, adjusting nothing else.
// At R = 1 this is a single block write; at R > 1 it is a
// read-modify-write of the containing block — one read plus one write,
// never R row operations. Row accounting stays with the caller
// (BumpRows), as before.
func (f *Flat) SetRow(i int, r table.Row, used bool) error {
	if i < 0 || i >= f.Capacity() {
		return fmt.Errorf("storage: table %q row write out of range: %d of %d", f.name, i, f.Capacity())
	}
	b, j := i/f.rpb, i%f.rpb
	if f.rpb == 1 {
		// The write covers the whole block: no read needed, preserving
		// the paper geometry's exact one-write trace.
		if err := f.encodeAt(f.blk, j, r, used); err != nil {
			return err
		}
		return f.store.Write(b, f.blk)
	}
	var err error
	f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
		return f.encodeAt(plain, j, r, used)
	})
	return err
}

// RMWSlot reads the block containing row slot i, hands the plaintext and
// the in-block record index to fn for in-place mutation, and re-seals the
// block — exactly one read plus one write whatever fn does, so a packed
// dummy write (fn leaving the plaintext untouched) re-seals one block,
// not R rows.
func (f *Flat) RMWSlot(i int, fn func(plain []byte, j int) error) error {
	if i < 0 || i >= f.Capacity() {
		return fmt.Errorf("storage: table %q slot RMW out of range: %d of %d", f.name, i, f.Capacity())
	}
	b, j := i/f.rpb, i%f.rpb
	var err error
	f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
		return fn(plain, j)
	})
	return err
}

// encodeAt encodes a record (or dummy) at slot j of a block plaintext.
func (f *Flat) encodeAt(plain []byte, j int, r table.Row, used bool) error {
	if !used {
		return f.schema.EncodeDummyAt(plain, j)
	}
	return f.schema.EncodeRecordAt(plain, j, r)
}

// Insert obliviously inserts a row: one pass over the table in which the
// block holding the first unused slot receives the real write (a
// read-modify-write) and every other block a dummy write (a re-seal of
// the data it already holds). One read and one write per block; leaks
// only the table size and geometry. The row counts as inserted once its
// block's write lands: if a later block's write fails, Insert returns
// the error with the row in place and NumRows counting it.
func (f *Flat) Insert(r table.Row) error {
	if err := f.schema.ValidateRow(r); err != nil {
		return err
	}
	inserted := false
	for b := 0; b < f.store.Len(); b++ {
		if err := f.readBlk(b); err != nil {
			return err
		}
		slot := -1
		if !inserted {
			for j := 0; j < f.rpb; j++ {
				if f.schema.UsedAt(f.blk, j) {
					continue
				}
				if err := f.schema.EncodeRecordAt(f.blk, j, r); err != nil {
					return err
				}
				slot = b*f.rpb + j
				break
			}
		}
		if err := f.store.Write(b, f.blk); err != nil {
			return err
		}
		if slot >= 0 {
			inserted = true
			f.rows++
			if slot >= f.appendAt {
				f.appendAt = slot + 1
			}
		}
	}
	if !inserted {
		return fmt.Errorf("storage: table %q is full (%d rows)", f.name, f.Capacity())
	}
	return nil
}

// InsertFast is the constant-time insertion variant for tables with few
// deletions (§3.1): it touches only the block holding the next slot,
// skipping the scan. The slot sequence depends only on the number of
// prior insertions, which the adversary already learns from table sizes
// over time.
func (f *Flat) InsertFast(r table.Row) error {
	if err := f.schema.ValidateRow(r); err != nil {
		return err
	}
	if f.appendAt >= f.Capacity() {
		return fmt.Errorf("storage: table %q is full (%d rows)", f.name, f.Capacity())
	}
	if err := f.SetRow(f.appendAt, r, true); err != nil {
		return err
	}
	f.appendAt++
	f.rows++
	return nil
}

// Update obliviously applies upd to every row matching pred. It runs two
// full passes whose traces depend only on the block count: a read-only
// validation pass that applies upd to every matching row and checks the
// result (ValidateRow), then a read-modify-write pass giving every block
// one read and one write (re-applying upd to its matching records, or a
// dummy re-encryption). A misbehaving updater — wrong arity, wrong kind,
// oversized string — fails cleanly in the first pass with the table
// untouched, instead of erroring mid-pass with the table half-rewritten;
// nothing is buffered, so tables arbitrarily larger than the oblivious
// memory update in O(1) enclave space. pred and upd must be pure: both
// passes evaluate them, so side-effecting or non-deterministic callbacks
// would diverge between validation and write. It returns the number of
// rows updated; on error, the rows of the blocks whose write landed —
// each block's read-modify-write is all-or-nothing, so those are exactly
// the first n matches in slot order.
func (f *Flat) Update(pred table.Pred, upd table.Updater) (int, error) {
	err := f.Scan(func(i int, row table.Row, used bool) error {
		if !used || !pred(row) {
			return nil
		}
		if err := f.schema.ValidateRow(upd(row.Clone())); err != nil {
			return fmt.Errorf("storage: update on %q produced an invalid row: %w", f.name, err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if f.dec == nil {
		f.dec = f.schema.NewBlockBuf(f.rpb)
	}
	updated := 0
	for b := 0; b < f.store.Len(); b++ {
		inBlock := 0
		f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
			if err := f.schema.DecodeBlockInto(f.dec, plain); err != nil {
				return err
			}
			for j := 0; j < f.rpb; j++ {
				row, used := f.dec.Row(j)
				if !used || !pred(row) {
					continue
				}
				if err := f.schema.EncodeRecordAt(plain, j, upd(row.Clone())); err != nil {
					return err
				}
				inBlock++
			}
			return nil
		})
		if err != nil {
			return updated, err
		}
		updated += inBlock
	}
	return updated, nil
}

// Delete obliviously marks every row matching pred unused, overwriting
// it with dummy data; every block gets exactly one read and one write
// (its survivors re-encrypted). It returns the number of rows deleted;
// on error, the rows of the blocks whose write landed, which the row
// count already reflects.
func (f *Flat) Delete(pred table.Pred) (int, error) {
	if f.dec == nil {
		f.dec = f.schema.NewBlockBuf(f.rpb)
	}
	deleted := 0
	var err error
	for b := 0; b < f.store.Len() && err == nil; b++ {
		inBlock := 0
		f.blk, err = f.store.RMW(b, f.blk, func(plain []byte) error {
			if err := f.schema.DecodeBlockInto(f.dec, plain); err != nil {
				return err
			}
			for j := 0; j < f.rpb; j++ {
				row, used := f.dec.Row(j)
				if used && pred(row) {
					if err := f.schema.EncodeDummyAt(plain, j); err != nil {
						return err
					}
					inBlock++
				}
			}
			return nil
		})
		if err == nil {
			deleted += inBlock
		}
	}
	f.rows -= deleted
	if deleted > 0 {
		// Deletions may open holes before appendAt; fall back to scanning
		// inserts for correctness (the paper offers InsertFast for tables
		// "with few deletions").
		f.appendAt = f.Capacity()
	}
	return deleted, err
}

// Scan reads every block once in order, invoking fn inside the enclave
// for each row slot (row is nil when the slot is unused). The rows
// passed to fn alias a scratch buffer reused block to block: fn must
// Clone any row it retains. The trace is one read per block regardless
// of data, and the steady-state path allocates nothing per block.
func (f *Flat) Scan(fn func(i int, row table.Row, used bool) error) error {
	if f.dec == nil {
		f.dec = f.schema.NewBlockBuf(f.rpb)
	}
	for b := 0; b < f.store.Len(); b++ {
		if err := f.ReadBlockInto(b, f.dec); err != nil {
			return err
		}
		base := b * f.rpb
		for j := 0; j < f.rpb; j++ {
			row, used := f.dec.Row(j)
			if err := fn(base+j, row, used); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rows collects all used rows in slot order. It is a convenience for
// tests and result delivery, not an oblivious operator. The result slice
// is preallocated to the known row count and every row is a fresh copy.
func (f *Flat) Rows() ([]table.Row, error) {
	out := make([]table.Row, 0, f.rows)
	err := f.Scan(func(_ int, row table.Row, used bool) error {
		if used {
			out = append(out, row.Clone())
		}
		return nil
	})
	return out, err
}

// CopyInto obliviously copies this table block-for-block into dst, which
// must have at least the same capacity, an equal schema, and the same
// packing factor. The copy's trace depends only on sizes (used by table
// growth); dst blocks past the source keep their freshly-initialized
// dummy contents.
func (f *Flat) CopyInto(dst *Flat) error {
	if !f.schema.Equal(dst.schema) {
		return fmt.Errorf("storage: schema mismatch copying %q into %q", f.name, dst.name)
	}
	if dst.rpb != f.rpb {
		return fmt.Errorf("storage: geometry mismatch copying %q (R=%d) into %q (R=%d)", f.name, f.rpb, dst.name, dst.rpb)
	}
	if dst.Capacity() < f.Capacity() {
		return fmt.Errorf("storage: destination %q too small: %d < %d", dst.name, dst.Capacity(), f.Capacity())
	}
	for b := 0; b < f.store.Len(); b++ {
		if err := f.readBlk(b); err != nil {
			return err
		}
		if err := dst.store.Write(b, f.blk); err != nil {
			return err
		}
	}
	dst.rows = f.rows
	dst.appendAt = f.appendAt
	return nil
}

// Expand returns a new flat table with larger capacity (same geometry)
// holding the same rows ("an initial maximum capacity that can be
// increased later by copying to a new, larger table", §3).
func (f *Flat) Expand(name string, newCapacity int) (*Flat, error) {
	if newCapacity < f.Capacity() {
		return nil, fmt.Errorf("storage: cannot shrink %q from %d to %d", f.name, f.Capacity(), newCapacity)
	}
	bigger, err := NewFlatGeom(f.enc, name, f.schema, newCapacity, f.rpb)
	if err != nil {
		return nil, err
	}
	if err := f.CopyInto(bigger); err != nil {
		return nil, err
	}
	return bigger, nil
}

// BumpRows adjusts the trusted row count after operators fill an output
// table directly through SetRow or a BlockWriter.
func (f *Flat) BumpRows(n int) { f.rows += n }

// seqFill owns the sequential-fill slot arithmetic shared by
// BlockWriter and storage.RangeWriter: records encode into an
// in-enclave block buffer and each block is handed to write exactly
// once — when it completes, or dummy-padded at Flush. One sealed write
// per block instead of one read-modify-write per row.
type seqFill struct {
	f       *Flat
	buf     []byte
	next    int // next row slot, relative to the fill's origin
	slots   int // total row slots available
	flushed bool
	write   func(block int, plain []byte) error
}

func newSeqFill(f *Flat, slots int, write func(block int, plain []byte) error) seqFill {
	return seqFill{f: f, buf: make([]byte, f.store.BlockSize()), slots: slots, write: write}
}

// Append encodes one row (or dummy) into the next slot, emitting the
// block when it completes.
func (w *seqFill) Append(r table.Row, used bool) error {
	if w.flushed {
		return fmt.Errorf("storage: sequential fill of %q appended after Flush", w.f.name)
	}
	if w.next >= w.slots {
		return fmt.Errorf("storage: sequential fill past its %d slots of %q", w.slots, w.f.name)
	}
	j := w.next % w.f.rpb
	if err := w.f.encodeAt(w.buf, j, r, used); err != nil {
		return err
	}
	w.next++
	if j == w.f.rpb-1 {
		return w.write(w.next/w.f.rpb-1, w.buf)
	}
	return nil
}

// Written returns the number of slots appended so far.
func (w *seqFill) Written() int { return w.next }

// Flush completes a partial final block, padding its remaining slots
// with dummies. Appending after Flush is an error.
func (w *seqFill) Flush() error {
	w.flushed = true
	j := w.next % w.f.rpb
	if j == 0 {
		return nil
	}
	for ; j < w.f.rpb; j++ {
		if err := w.f.schema.EncodeDummyAt(w.buf, j); err != nil {
			return err
		}
		w.next++
	}
	return w.write(w.next/w.f.rpb-1, w.buf)
}

// BlockWriter fills a table's row slots sequentially from slot 0 — the
// output half of every sequential-fill operator. The writer must own
// the whole table (a fresh operator output); Flush pads the final
// partial block's remaining slots with dummies and writes it.
type BlockWriter struct{ seqFill }

// NewBlockWriter creates a sequential writer over f starting at slot 0.
func (f *Flat) NewBlockWriter() *BlockWriter {
	return &BlockWriter{newSeqFill(f, f.Capacity(), func(b int, plain []byte) error {
		return f.store.Write(b, plain)
	})}
}

// ReadView is a read-only view of a flat table owned by one concurrent
// read context: it carries its own plaintext and decode scratch and reads
// through the context's enclave (ReadIntoVia), so several views — and the
// table's owner — may read the same sealed blocks concurrently. Accesses
// are recorded on the view's tracer under the table's name, exactly as
// the owning enclave would record them. A view is only valid while no
// goroutine writes the table (the engine guarantees this with its
// read/write lock) and is invalidated by Expand, which replaces the
// table's store.
//
// ReadView implements the exec.Input block-reader shape directly.
type ReadView struct {
	f      *Flat
	via    *enclave.Enclave
	region trace.Region
	blk    []byte
}

// ReadViewVia creates a read view of f for the given enclave context.
// The view registers a region named after the table on the context's
// tracer.
func (f *Flat) ReadViewVia(via *enclave.Enclave) *ReadView {
	return &ReadView{
		f:      f,
		via:    via,
		region: via.Tracer().Region(f.name),
		blk:    make([]byte, f.store.BlockSize()),
	}
}

// Table returns the flat table behind the view.
func (v *ReadView) Table() *Flat { return v.f }

// Schema returns the table schema.
func (v *ReadView) Schema() *table.Schema { return v.f.schema }

// Blocks returns the number of sealed blocks.
func (v *ReadView) Blocks() int { return v.f.store.Len() }

// RowsPerBlock returns R, the packing factor.
func (v *ReadView) RowsPerBlock() int { return v.f.rpb }

// ReadBlockInto decrypts packed block b through the view's enclave into
// the caller-owned scratch buf.
func (v *ReadView) ReadBlockInto(b int, buf *table.BlockBuf) error {
	plain, err := v.f.store.ReadIntoVia(v.via, v.region, b, v.blk)
	if err != nil {
		return err
	}
	v.blk = plain
	return v.f.schema.DecodeBlockInto(buf, plain)
}
