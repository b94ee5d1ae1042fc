from .config import default_config, load_config

__all__ = ["default_config", "load_config"]
