package topology

import (
	"encoding/json"
	"fmt"
	"io"
)

// fileFormat is the on-disk JSON representation of a Network, optionally
// carrying Gao–Rexford relationship annotations so a saved topology and
// its policy assignment travel as one artifact: the DES policy path and
// the snapshot backend then consume byte-identical inputs instead of
// each re-inferring relationships from the graph.
type fileFormat struct {
	Grid          float64     `json:"grid"`
	Nodes         []Node      `json:"nodes"`
	Links         []Neighbor2 `json:"links"`
	Relationships []LinkRel   `json:"relationships,omitempty"`
}

// WriteJSON serializes the network without relationship annotations.
func (nw *Network) WriteJSON(w io.Writer) error {
	return nw.WriteJSONWith(w, nil)
}

// WriteJSONWith serializes the network together with its relationship
// annotations (nil rs writes the plain form, byte-identical to files
// written before annotations existed). Annotations are emitted in
// canonical sorted order (LinkAnnotations), so equal relationship maps
// always serialize to equal bytes.
func (nw *Network) WriteJSONWith(w io.Writer, rs *Relationships) error {
	ff := fileFormat{Grid: nw.grid, Nodes: nw.nodes, Links: nw.Links()}
	if rs != nil {
		ff.Relationships = rs.LinkAnnotations()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ff)
}

// ReadJSON deserializes a network written by WriteJSON, ignoring any
// relationship annotations in the file.
func ReadJSON(r io.Reader) (*Network, error) {
	nw, _, err := ReadJSONWith(r)
	return nw, err
}

// ReadJSONWith deserializes a network and its relationship annotations,
// refusing links that break Network.CheckSessions. The returned
// Relationships is nil when the file carries none; when present it is
// validated for pairwise consistency against the links.
func ReadJSONWith(r io.Reader) (*Network, *Relationships, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, nil, fmt.Errorf("topology: decode: %w", err)
	}
	nw := NewNetwork(len(ff.Nodes))
	if ff.Grid > 0 {
		nw.SetGrid(ff.Grid)
	}
	for i, n := range ff.Nodes {
		if n.ID != i {
			return nil, nil, fmt.Errorf("topology: node %d has id %d; ids must be dense and ordered", i, n.ID)
		}
		nw.SetAS(i, n.AS)
		nw.SetPos(i, n.Pos)
	}
	for _, l := range ff.Links {
		if err := nw.AddLink(l.A, l.B, l.Internal); err != nil {
			return nil, nil, err
		}
	}
	if err := nw.CheckSessions(); err != nil {
		return nil, nil, err
	}
	if ff.Relationships == nil {
		return nw, nil, nil
	}
	for _, l := range ff.Relationships {
		if l.A < 0 || l.A >= nw.NumNodes() || l.B < 0 || l.B >= nw.NumNodes() {
			return nil, nil, fmt.Errorf("topology: relationship %d-%d outside the node range", l.A, l.B)
		}
	}
	rs := RelationshipsFromLinks(ff.Relationships)
	if err := rs.Validate(nw); err != nil {
		return nil, nil, err
	}
	return nw, rs, nil
}
