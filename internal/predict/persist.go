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
// in a versioned model header. Older model files also carry §3.3.4
// staleness thresholds (ErrCap and the flag limit) in the header; gob
// drops a field the target struct lacks, so they load and nothing reads
// them.

const persistVersion = 1

// persistMagic distinguishes a model header from a bare forest gob:
// gob matches struct fields by name, and the forest format also opens
// with a Version field, so version alone cannot tell them apart.
const persistMagic = "wanify-predict-model"

type persistModel struct {
	Magic   string
	Version int
}

// Save serializes the model (header + forest).
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(persistModel{Magic: persistMagic, Version: persistVersion}); err != nil {
		return fmt.Errorf("predict: encode header: %w", err)
	}
	return m.forest.Save(w)
}

// Load deserializes a model saved with Save. Bare forest files (the
// format `wanify-train -out` wrote before model-level persistence
// existed) are accepted too.
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
	var f *rf.Forest
	if err := gob.NewDecoder(br).Decode(&hdr); err != nil || hdr.Magic != persistMagic {
		// Not a model header — try the legacy bare-forest format (what
		// `wanify-train -out` wrote before model-level persistence)
		// before giving up.
		var ferr error
		if f, ferr = rf.Load(bytes.NewReader(data)); ferr != nil {
			if err != nil {
				return nil, fmt.Errorf("predict: decode header: %w", err)
			}
			return nil, ferr
		}
	} else {
		if hdr.Version != persistVersion {
			return nil, fmt.Errorf("predict: model file version %d, want %d", hdr.Version, persistVersion)
		}
		if f, err = rf.Load(br); err != nil {
			return nil, err
		}
	}
	if w := f.NumFeatures(); w != dataset.NumFeatures {
		return nil, fmt.Errorf("predict: model reads %d features, snapshots yield %d", w, dataset.NumFeatures)
	}
	return &Model{forest: f}, nil
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
