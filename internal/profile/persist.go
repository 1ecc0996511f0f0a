package profile

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// The history is the only long-lived state of the system (Figure 1 keeps
// it across days), so a production deployment must persist it between
// daily batches. The on-disk format is line-delimited JSON: a header
// record followed by one record per domain and per (UA, host) pair, so
// multi-million-entry histories stream without building one giant value in
// memory.

type persistHeader struct {
	Version int `json:"version"`
	Days    int `json:"days"`
	Domains int `json:"domains"`
	UAs     int `json:"uas"`
}

type persistDomain struct {
	D string    `json:"d"`
	T time.Time `json:"t"`
}

type persistUA struct {
	UA    string   `json:"ua"`
	Hosts []string `json:"hosts"`
}

const persistVersion = 1

// Save streams the history to w. The output is byte-deterministic given the
// same history contents: records are emitted in sorted key order, so two
// histories with equal state serialize identically (checkpoint bytes are
// diffable and content-addressable).
func (h *History) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := h.SaveTo(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveTo writes the history as one section of a larger line-delimited
// stream (the streaming engine's checkpoints embed it): the bytes
// json.Encoder would emit for persistHeader, then one persistDomain per
// domain and one persistUA per user agent, built without reflection in one
// reused line buffer. The caller flushes bw.
func (h *History) SaveTo(bw *bufio.Writer) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	w := newLineWriter(bw)
	w.int(`{"version":`, persistVersion)
	w.int(`,"days":`, h.days)
	w.int(`,"domains":`, len(h.domains))
	w.int(`,"uas":`, len(h.uaHosts))
	if err := w.end(); err != nil {
		return fmt.Errorf("profile: save header: %w", err)
	}
	domains := make([]string, 0, len(h.domains))
	for d := range h.domains {
		domains = append(domains, d)
	}
	sort.Strings(domains)
	for _, d := range domains {
		w.str(`{"d":`, d)
		if err := w.time(`,"t":`, h.domains[d]); err != nil {
			return fmt.Errorf("profile: save domain: %w", err)
		}
		if err := w.end(); err != nil {
			return fmt.Errorf("profile: save domain: %w", err)
		}
	}
	uas := make([]string, 0, len(h.uaHosts))
	for ua := range h.uaHosts {
		uas = append(uas, ua)
	}
	sort.Strings(uas)
	for _, ua := range uas {
		w.str(`{"ua":`, ua)
		w.strs = w.strs[:0]
		for host := range h.uaHosts[ua] {
			w.strs = append(w.strs, host)
		}
		sort.Strings(w.strs)
		w.strList(`,"hosts":`, w.strs)
		if err := w.end(); err != nil {
			return fmt.Errorf("profile: save ua: %w", err)
		}
	}
	return nil
}

// LoadHistory reads a history previously written by Save.
func LoadHistory(r io.Reader) (*History, error) {
	return LoadHistoryFrom(json.NewDecoder(bufio.NewReader(r)))
}

// LoadHistoryFrom reads a history through an existing decoder. The section
// is self-delimiting (the header carries record counts), so the decoder is
// left positioned exactly past the history for the caller's next section.
func LoadHistoryFrom(dec *json.Decoder) (*History, error) {
	var hdr persistHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("profile: load header: %w", err)
	}
	if hdr.Version != persistVersion {
		return nil, fmt.Errorf("profile: unsupported history version %d", hdr.Version)
	}
	h := NewHistory()
	h.days = hdr.Days
	for i := 0; i < hdr.Domains; i++ {
		var rec persistDomain
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("profile: load domain %d: %w", i, err)
		}
		h.domains[rec.D] = rec.T
	}
	for i := 0; i < hdr.UAs; i++ {
		var rec persistUA
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("profile: load ua %d: %w", i, err)
		}
		set := make(map[string]bool, len(rec.Hosts))
		for _, host := range rec.Hosts {
			set[host] = true
		}
		h.uaHosts[rec.UA] = set
	}
	return h, nil
}
