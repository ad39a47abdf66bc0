"""rasim: frame-based random access with traffic prediction, grid slicing and barring."""

__version__ = "0.1.0"

from .acb import AcbPolicy, collided_outcomes, parse_policy
from .engine import (
    FrameResult,
    MonteCarloResult,
    SimulationConfig,
    run_frame,
    run_monte_carlo,
    run_simulation,
)
from .lstm import LstmModel, init_lstm, lstm_forward, lstm_train
from .metrics import channel_loading, normalized_throughput, predictor_mse
from .predictor import (
    LstmPredictor,
    PredictionResult,
    load_predictor,
    naive_predict,
    save_predictor,
)
from .slicing import (
    ChannelAssignment,
    GridConfig,
    SlicingPlan,
    fixed_grid_slice,
    maxrect_slice,
    packet_size_rbs,
    validate_constraints,
)
from .traffic import (
    TrafficConfig,
    beta_activation_profile,
    sample_mmtc_arrivals,
    sample_urllc_arrivals,
    update_backlog,
)
