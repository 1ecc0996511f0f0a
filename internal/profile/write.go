package profile

import (
	"bufio"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/appendjson"
)

// lineWriter builds one persisted section's records in a single reused
// buffer and hands each finished line to a bufio.Writer. Every record is
// laid out field for field as its encoding/json struct (persistDomain,
// builderDomainRec, codecHost, ...) — same key order, same omitempty
// rules, same escaping — so the bytes are those json.Encoder would emit
// and the section's decoder reads them unchanged; the differential tests
// hold the two byte for byte. The writer allocates nothing per record
// once its buffers have grown to the largest record.
type lineWriter struct {
	bw    *bufio.Writer
	b     []byte
	strs  []string        // sort scratch: path, UA and host names
	acts  []*HostActivity // sort scratch: a domain's hosts
	ipBuf []byte
}

func newLineWriter(bw *bufio.Writer) *lineWriter {
	return &lineWriter{bw: bw, b: make([]byte, 0, 1024)}
}

// end terminates the record under construction, as json.Encoder does, and
// writes it.
func (w *lineWriter) end() error {
	w.b = append(w.b, '}', '\n')
	_, err := w.bw.Write(w.b)
	w.b = w.b[:0]
	return err
}

// int appends prefix (the JSON punctuation and key before the value) and n.
func (w *lineWriter) int(prefix string, n int) {
	w.b = strconv.AppendInt(append(w.b, prefix...), int64(n), 10)
}

func (w *lineWriter) uint(prefix string, n uint64) {
	w.b = strconv.AppendUint(append(w.b, prefix...), n, 10)
}

func (w *lineWriter) str(prefix, s string) {
	w.b = appendjson.String(append(w.b, prefix...), s)
}

// time appends prefix and t; a time MarshalJSON refuses leaves the record
// unfinished and returns its error.
func (w *lineWriter) time(prefix string, t time.Time) error {
	var err error
	w.b, err = appendjson.Time(append(w.b, prefix...), t)
	return err
}

// strList appends prefix and ss as a JSON array.
func (w *lineWriter) strList(prefix string, ss []string) {
	w.b = append(w.b, prefix...)
	w.b = append(w.b, '[')
	for i, s := range ss {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.b = appendjson.String(w.b, s)
	}
	w.b = append(w.b, ']')
}

// ip appends the `"ip"` field of a domain record, omitted for the zero
// address as the record's omitempty string is.
func (w *lineWriter) ip(ip netip.Addr) {
	if !ip.IsValid() {
		return
	}
	w.ipBuf = ip.AppendTo(w.ipBuf[:0])
	w.b = appendjson.String(append(w.b, `,"ip":`...), w.ipBuf)
}

// hosts appends the `"hosts"` field of a domain record: one codecHost per
// host activity in host order, with each host's UAs sorted.
func (w *lineWriter) hosts(hosts map[string]*HostActivity) error {
	w.acts = w.acts[:0]
	for _, ha := range hosts {
		w.acts = append(w.acts, ha)
	}
	slices.SortFunc(w.acts, func(x, y *HostActivity) int { return strings.Compare(x.Host, y.Host) })
	w.b = append(w.b, `,"hosts":[`...)
	for i, ha := range w.acts {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.str(`{"h":`, ha.Host)
		w.b = append(w.b, `,"t":`...)
		if ha.Times == nil {
			w.b = append(w.b, "null"...)
		} else {
			w.b = append(w.b, '[')
			for j, t := range ha.Times {
				if j > 0 {
					w.b = append(w.b, ',')
				}
				if err := w.time("", t); err != nil {
					return err
				}
			}
			w.b = append(w.b, ']')
		}
		if ha.NoRefVisits != 0 {
			w.int(`,"noRef":`, ha.NoRefVisits)
		}
		if len(ha.UAs) > 0 {
			w.strs = w.strs[:0]
			for ua := range ha.UAs {
				w.strs = append(w.strs, ua)
			}
			sort.Strings(w.strs)
			w.strList(`,"uas":`, w.strs)
		}
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
	return nil
}

// uaPairs writes one uaPairRec line per (host, UA) pair in lexicographic
// order.
func (w *lineWriter) uaPairs(set map[[2]string]bool) error {
	for _, pair := range sortedUAPairs(set) {
		w.str(`{"h":`, pair[0])
		w.str(`,"ua":`, pair[1])
		if err := w.end(); err != nil {
			return err
		}
	}
	return nil
}
