package predict

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"github.com/wanify/wanify/internal/ml/dataset"
	"github.com/wanify/wanify/internal/ml/rf"
)

// Model persistence wraps the forest's gob format (internal/ml/rf)
// with the staleness configuration, so a reloaded model resumes §3.3.4
// monitoring with the thresholds it was trained with. Banked pending
// rows and the error window are runtime state and are not persisted —
// a freshly loaded model starts with a clean staleness slate, like a
// freshly trained one.

const persistVersion = 1

// persistMagic distinguishes a model header from a bare forest gob:
// gob matches struct fields by name, and the forest format also opens
// with a Version field, so version alone cannot tell them apart.
const persistMagic = "wanify-predict-model"

type persistModel struct {
	Magic     string
	Version   int
	ErrCap    int
	FlagLimit float64
}

// Save serializes the model (forest + staleness configuration).
func (m *Model) Save(w io.Writer) error {
	hdr := persistModel{Magic: persistMagic, Version: persistVersion, ErrCap: m.errCap, FlagLimit: m.flagLimit}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("predict: encode header: %w", err)
	}
	return m.forest.Save(w)
}

// Load deserializes a model saved with Save. Bare forest files (the
// format `wanify-train -out` wrote before model-level persistence
// existed) are accepted too, with the default staleness thresholds.
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	// The stream holds two consecutive gob messages (header, forest)
	// read by two decoders; a bytes.Reader keeps each decoder
	// byte-exact so the second starts where the first stopped.
	br := bytes.NewReader(data)
	var hdr persistModel
	var m *Model
	if err := gob.NewDecoder(br).Decode(&hdr); err != nil || hdr.Magic != persistMagic {
		// Not a model header — try the legacy bare-forest format (what
		// `wanify-train -out` wrote before model-level persistence)
		// before giving up.
		f, ferr := rf.Load(bytes.NewReader(data))
		if ferr != nil {
			if err != nil {
				return nil, fmt.Errorf("predict: decode header: %w", err)
			}
			return nil, ferr
		}
		m = &Model{forest: f, errCap: defaultErrWindow, flagLimit: defaultFlagLimit}
	} else {
		if hdr.Version != persistVersion {
			return nil, fmt.Errorf("predict: model file version %d, want %d", hdr.Version, persistVersion)
		}
		if hdr.ErrCap <= 0 || !(hdr.FlagLimit > 0) {
			return nil, fmt.Errorf("predict: model file has invalid staleness config %+v", hdr)
		}
		f, err := rf.Load(br)
		if err != nil {
			return nil, err
		}
		m = &Model{forest: f, errCap: hdr.ErrCap, flagLimit: hdr.FlagLimit}
	}
	if w := m.forest.NumFeatures(); w != dataset.NumFeatures {
		return nil, fmt.Errorf("predict: model reads %d features, snapshots yield %d", w, dataset.NumFeatures)
	}
	return m, nil
}

// SaveFile writes the model to a file.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("predict: %w", err)
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a model written by SaveFile.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("predict: %w", err)
	}
	defer f.Close()
	return Load(f)
}
